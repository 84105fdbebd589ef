/**
 * @file
 * Verifies Table 1 of the paper: serialized network messages for stores
 * to shared memory under each coherence policy and initial line state.
 *
 *   UNC                        2
 *   INV to cached exclusive    0
 *   INV to remote exclusive    4
 *   INV to remote shared       3
 *   INV to uncached            2
 *   UPD to cached              3
 *   UPD to uncached            2
 *
 * The serialized count is the longest chain of causally ordered network
 * messages ending at the requester (Msg::chain), recorded per completed
 * operation in SysStats::chain_length.
 */

#include <gtest/gtest.h>

#include "helpers.hh"

using namespace dsmtest;

namespace {

/** Run a store on proc 0 and return its serialized message chain. */
int
measureStoreChain(System &sys, Addr a)
{
    clearStats(sys);
    runOp(sys, 0, AtomicOp::STORE, a, 99);
    EXPECT_EQ(sys.stats().op_latency[static_cast<int>(AtomicOp::STORE)].count,
              1u);
    EXPECT_EQ(sys.stats().retries, 0u) << "unexpected retries";
    return static_cast<int>(sys.stats().chain_length.max());
}

} // namespace

TEST(Table1, UncStoreIsTwoMessages)
{
    System sys(smallConfig(SyncPolicy::UNC));
    Addr a = sys.allocSyncAt(3); // remote home
    EXPECT_EQ(measureStoreChain(sys, a), 2);
}

TEST(Table1, InvStoreToCachedExclusiveIsZeroMessages)
{
    System sys(smallConfig(SyncPolicy::INV));
    Addr a = sys.allocSyncAt(3);
    runOp(sys, 0, AtomicOp::STORE, a, 1); // take exclusive ownership
    EXPECT_EQ(measureStoreChain(sys, a), 0);
}

TEST(Table1, InvStoreToRemoteExclusiveIsFourMessages)
{
    System sys(smallConfig(SyncPolicy::INV));
    Addr a = sys.allocSyncAt(3);
    runOp(sys, 1, AtomicOp::STORE, a, 1); // node 1 owns exclusively
    EXPECT_EQ(measureStoreChain(sys, a), 4);
}

TEST(Table1, InvStoreToRemoteSharedIsThreeMessages)
{
    System sys(smallConfig(SyncPolicy::INV));
    Addr a = sys.allocSyncAt(3);
    sys.writeInit(a, 5);
    runOp(sys, 1, AtomicOp::LOAD, a);
    runOp(sys, 2, AtomicOp::LOAD, a); // line shared by remote nodes
    EXPECT_EQ(measureStoreChain(sys, a), 3);
}

TEST(Table1, InvStoreToUncachedIsTwoMessages)
{
    System sys(smallConfig(SyncPolicy::INV));
    Addr a = sys.allocSyncAt(3); // nobody has ever cached it
    EXPECT_EQ(measureStoreChain(sys, a), 2);
}

TEST(Table1, UpdStoreToCachedIsThreeMessages)
{
    System sys(smallConfig(SyncPolicy::UPD));
    Addr a = sys.allocSyncAt(3);
    runOp(sys, 1, AtomicOp::LOAD, a); // a remote sharer exists
    EXPECT_EQ(measureStoreChain(sys, a), 3);
}

TEST(Table1, UpdStoreToUncachedIsTwoMessages)
{
    System sys(smallConfig(SyncPolicy::UPD));
    Addr a = sys.allocSyncAt(3);
    EXPECT_EQ(measureStoreChain(sys, a), 2);
}

// The same chain accounting explains the drop_copy motivation
// (Section 3): after dropping, a write needs only 2 serialized messages.

TEST(Table1, DropCopyReducesNextWriteToTwoMessages)
{
    System sys(smallConfig(SyncPolicy::INV));
    Addr a = sys.allocSyncAt(3);
    runOp(sys, 1, AtomicOp::STORE, a, 1);     // remote exclusive
    runOp(sys, 1, AtomicOp::DROP_COPY, a);    // owner drops its copy
    EXPECT_EQ(measureStoreChain(sys, a), 2);  // 4 without the drop
}

TEST(Table1, LocalHomeOperationsUseNoNetworkMessages)
{
    System sys(smallConfig(SyncPolicy::UNC));
    Addr a = sys.allocSyncAt(0); // home at the requester
    EXPECT_EQ(measureStoreChain(sys, a), 0);
}

TEST(Table1, AtomicPrimitiveChains)
{
    // The same serialized-message accounting applied to the atomic
    // primitives (these counts underpin the Section 4.3 analysis).
    {
        // UNC fetch_and_add: always 2.
        System sys(smallConfig(SyncPolicy::UNC));
        Addr a = sys.allocSyncAt(3);
        clearStats(sys);
        runOp(sys, 0, AtomicOp::FAA, a, 1);
        EXPECT_EQ(sys.stats().chain_length.max(), 2u);
    }
    {
        // INV fetch_and_add on an uncached line: 2 (like a store).
        System sys(smallConfig(SyncPolicy::INV));
        Addr a = sys.allocSyncAt(3);
        clearStats(sys);
        runOp(sys, 0, AtomicOp::FAA, a, 1);
        EXPECT_EQ(sys.stats().chain_length.max(), 2u);
        // And the second one is free (cache hit).
        clearStats(sys);
        runOp(sys, 0, AtomicOp::FAA, a, 1);
        EXPECT_EQ(sys.stats().chain_length.max(), 0u);
    }
    {
        // UPD fetch_and_add with one remote sharer: 3.
        System sys(smallConfig(SyncPolicy::UPD));
        Addr a = sys.allocSyncAt(3);
        runOp(sys, 1, AtomicOp::LOAD, a);
        clearStats(sys);
        runOp(sys, 0, AtomicOp::FAA, a, 1);
        EXPECT_EQ(sys.stats().chain_length.max(), 3u);
    }
}

TEST(Table1, CasVariantChains)
{
    // INVd/INVs failure at the home: 2 serialized messages (the whole
    // point -- a failing CAS does not run the invalidation protocol).
    for (CasVariant v : {CasVariant::DENY, CasVariant::SHARE}) {
        Config cfg = smallConfig(SyncPolicy::INV);
        cfg.sync.cas_variant = v;
        System sys(cfg);
        Addr a = sys.allocSyncAt(3);
        sys.writeInit(a, 1);
        runOp(sys, 1, AtomicOp::LOAD, a);
        runOp(sys, 2, AtomicOp::LOAD, a);
        clearStats(sys);
        EXPECT_FALSE(runOp(sys, 0, AtomicOp::CAS, a, 9, 0).success);
        EXPECT_EQ(sys.stats().chain_length.max(), 2u)
            << toString(v);
        // Failure at a remote owner costs 4 (home -> owner -> home).
        System sys2(cfg);
        Addr b = sys2.allocSyncAt(3);
        sys2.writeInit(b, 1);
        {
            OpResult r;
            sys2.spawn(doOp(sys2.proc(1), AtomicOp::STORE, b, 1, 0,
                            &r));
            sys2.run();
            sys2.reapTasks();
        }
        sys2.clearStats();
        OpResult fail;
        sys2.spawn(doOp(sys2.proc(0), AtomicOp::CAS, b, 9, 0, &fail));
        sys2.run();
        sys2.reapTasks();
        EXPECT_FALSE(fail.success);
        EXPECT_EQ(sys2.stats().chain_length.max(), 4u) << toString(v);
    }
}

TEST(Table1, ScSuccessChain)
{
    // A remote SC that must consult the directory: request + verdict
    // (+ invalidation acks when other sharers exist).
    System sys(smallConfig(SyncPolicy::INV));
    Addr a = sys.allocSyncAt(3);
    runOp(sys, 0, AtomicOp::LL, a); // shared copy + reservation
    clearStats(sys);
    runOp(sys, 0, AtomicOp::SC, a, 9);
    EXPECT_EQ(sys.stats().chain_length.max(), 2u); // no other sharers
    // With another sharer, the acks add a third serialized message.
    System sys2(smallConfig(SyncPolicy::INV));
    Addr b = sys2.allocSyncAt(3);
    runOp(sys2, 1, AtomicOp::LOAD, b);
    runOp(sys2, 0, AtomicOp::LL, b);
    clearStats(sys2);
    runOp(sys2, 0, AtomicOp::SC, b, 9);
    EXPECT_EQ(sys2.stats().chain_length.max(), 3u);
}

TEST(Table1, ReadMissChains)
{
    System sys(smallConfig(SyncPolicy::INV));
    Addr a = sys.allocSyncAt(3);
    sys.writeInit(a, 5);
    // Uncached read miss: request + data reply.
    clearStats(sys);
    runOp(sys, 0, AtomicOp::LOAD, a);
    EXPECT_EQ(sys.stats().chain_length.max(), 2u);
    // Remote-exclusive read miss: 4 serialized messages via the owner.
    runOp(sys, 1, AtomicOp::STORE, a, 6);
    clearStats(sys);
    runOp(sys, 2, AtomicOp::LOAD, a);
    EXPECT_EQ(sys.stats().chain_length.max(), 4u);
}
