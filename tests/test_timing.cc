/**
 * @file
 * Timing-model regression tests: exact end-to-end latencies of simple
 * operations, derived from the machine parameters. These pin down the
 * mesh serialization, memory queueing, and protocol-path arithmetic so
 * that accidental model changes are caught.
 */

#include <gtest/gtest.h>

#include "helpers.hh"

using namespace dsmtest;

namespace {

/** Flits for a message of @p payload bytes. */
Tick
flits(unsigned payload)
{
    return (payload + HEADER_BYTES + FLIT_BYTES - 1) / FLIT_BYTES;
}

/** One-way network time: inject + hops + eject on idle ports. */
Tick
netTime(const MachineConfig &mc, int hops, unsigned payload)
{
    return static_cast<Tick>(hops) * mc.hop_latency +
           flits(payload) * mc.flit_latency;
}

Tick
measuredMean(System &sys, AtomicOp op)
{
    return static_cast<Tick>(
        sys.stats().op_latency[static_cast<int>(op)].mean());
}

} // namespace

TEST(Timing, CacheHitIsOneCycle)
{
    System sys(smallConfig());
    Addr a = sys.alloc(WORD_BYTES);
    runOp(sys, 0, AtomicOp::STORE, a, 1);
    clearStats(sys);
    runOp(sys, 0, AtomicOp::LOAD, a);
    EXPECT_EQ(measuredMean(sys, AtomicOp::LOAD),
              sys.cfg().machine.cache_hit_latency);
}

TEST(Timing, UncRemoteRoundTrip)
{
    Config cfg = smallConfig(SyncPolicy::UNC);
    System sys(cfg);
    const MachineConfig &mc = cfg.machine;
    Addr a = sys.allocSyncAt(3); // 2 hops from node 0 on the 2x2 mesh
    clearStats(sys);
    runOp(sys, 0, AtomicOp::FAA, a, 1);
    // Request: UNC_REQ (8 + 16 bytes payload); memory; UNC_RESP (16).
    Tick expect = netTime(mc, 2, 24) + mc.mem_service_time +
                  netTime(mc, 2, 16);
    EXPECT_EQ(measuredMean(sys, AtomicOp::FAA), expect);
}

TEST(Timing, UncLocalRoundTrip)
{
    Config cfg = smallConfig(SyncPolicy::UNC);
    System sys(cfg);
    const MachineConfig &mc = cfg.machine;
    Addr a = sys.allocSyncAt(0); // home at the requester
    clearStats(sys);
    runOp(sys, 0, AtomicOp::FAA, a, 1);
    Tick expect = LOCAL_LATENCY + mc.mem_service_time + LOCAL_LATENCY;
    EXPECT_EQ(measuredMean(sys, AtomicOp::FAA), expect);
}

TEST(Timing, InvColdMissReadsMemoryAtHome)
{
    Config cfg = smallConfig(SyncPolicy::INV);
    System sys(cfg);
    const MachineConfig &mc = cfg.machine;
    Addr a = sys.allocSyncAt(3);
    clearStats(sys);
    runOp(sys, 0, AtomicOp::LOAD, a);
    // GET_S (8) out, DATA_S (8 + 32) back.
    Tick expect = netTime(mc, 2, 8) + mc.mem_service_time +
                  netTime(mc, 2, 40);
    EXPECT_EQ(measuredMean(sys, AtomicOp::LOAD), expect);
}

TEST(Timing, RemoteExclusiveTransferIsFourLegs)
{
    Config cfg = smallConfig(SyncPolicy::INV);
    System sys(cfg);
    const MachineConfig &mc = cfg.machine;
    Addr a = sys.allocSyncAt(3);
    runOp(sys, 1, AtomicOp::STORE, a, 5); // node 1 owns (1 hop from 3)
    clearStats(sys);
    runOp(sys, 0, AtomicOp::FAA, a, 1);
    // GET_X 0->3 (2 hops, 8B); mem; FWD 3->1 (1 hop, 8B); cache access;
    // OWNER_DATA_X 1->3 (1 hop, 40B); mem; DATA_X 3->0 (2 hops, 40B).
    Tick expect = netTime(mc, 2, 8) + mc.mem_service_time +
                  netTime(mc, 1, 8) + CACHE_ACCESS_LATENCY +
                  netTime(mc, 1, 40) + mc.mem_service_time +
                  netTime(mc, 2, 40);
    EXPECT_EQ(measuredMean(sys, AtomicOp::FAA), expect);
}

TEST(Timing, MemoryQueueingDelaysConcurrentRequests)
{
    // Two UNC requests from different nodes to one home serialize on
    // the memory module: the later completion includes queueing time.
    Config cfg = smallConfig(SyncPolicy::UNC);
    System sys(cfg);
    Addr a = sys.allocSyncAt(3);
    sys.spawn(doOp(sys.proc(0), AtomicOp::FAA, a, 1, 0, nullptr));
    sys.spawn(doOp(sys.proc(1), AtomicOp::FAA, a, 1, 0, nullptr));
    runAll(sys);
    EXPECT_GE(sys.mem(3).queueCycles(), cfg.machine.mem_service_time / 2);
    EXPECT_EQ(sys.debugRead(a), 2u);
}

TEST(Timing, SecondAccessInRunIsAHit)
{
    // The INV advantage for long write runs: the second FAA by the same
    // processor costs exactly one cycle.
    System sys(smallConfig(SyncPolicy::INV));
    Addr a = sys.allocSyncAt(3);
    runOp(sys, 0, AtomicOp::FAA, a, 1);
    clearStats(sys);
    runOp(sys, 0, AtomicOp::FAA, a, 1);
    EXPECT_EQ(measuredMean(sys, AtomicOp::FAA),
              sys.cfg().machine.cache_hit_latency);
}

TEST(Timing, ComputeIsExact)
{
    System sys(smallConfig());
    Tick t0 = sys.now();
    sys.spawn([](Proc &p) -> Task {
        co_await p.compute(137);
    }(sys.proc(0)));
    runAll(sys);
    EXPECT_EQ(sys.now() - t0, 137u);
}

TEST(Timing, DeterministicLatenciesAcrossRuns)
{
    auto once = [] {
        System sys(smallConfig(SyncPolicy::INV, 8));
        Addr a = sys.allocSync();
        for (NodeId n = 0; n < 8; ++n)
            sys.spawn(doOp(sys.proc(n), AtomicOp::FAA, a, 1, 0,
                           nullptr));
        sys.run();
        return sys.stats()
            .op_latency[static_cast<int>(AtomicOp::FAA)]
            .sum;
    };
    EXPECT_EQ(once(), once());
}
