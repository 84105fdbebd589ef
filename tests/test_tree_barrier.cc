/** @file Correctness tests for the MCS-style tree barrier. */

#include <gtest/gtest.h>

#include "helpers.hh"
#include "sync/tree_barrier.hh"

using namespace dsmtest;

namespace {

/** Each thread bumps a host-side phase counter; the barrier must make
 *  phases strictly sequential across every processor. */
Task
phasedWorker(Proc &p, TreeBarrier &bar, int rounds,
             std::vector<int> &phase_of, bool *violation, Tick jitter)
{
    for (int r = 0; r < rounds; ++r) {
        // Unequal work before the barrier.
        co_await p.compute(1 + (static_cast<Tick>(p.id()) * jitter) %
                                   37);
        phase_of[static_cast<size_t>(p.id())] = r;
        co_await bar.arrive(p);
        // After the barrier, nobody may still be in an older phase.
        for (int other : phase_of)
            if (other < r)
                *violation = true;
        co_await bar.arrive(p);
    }
}

} // namespace

TEST(TreeBarrier, SynchronizesAllProcs)
{
    System sys(smallConfig(SyncPolicy::INV, 8));
    TreeBarrier bar(sys, 8);
    std::vector<int> phase_of(8, -1);
    bool violation = false;
    for (NodeId n = 0; n < 8; ++n)
        sys.spawn(phasedWorker(sys.proc(n), bar, 6, phase_of,
                               &violation, 11));
    runAll(sys);
    EXPECT_FALSE(violation);
    EXPECT_EQ(bar.roundsCompleted(), 12u);
}

TEST(TreeBarrier, WorksWithSixtyFourProcs)
{
    System sys(smallConfig(SyncPolicy::INV, 64));
    TreeBarrier bar(sys, 64);
    std::vector<int> phase_of(64, -1);
    bool violation = false;
    for (NodeId n = 0; n < 64; ++n)
        sys.spawn(phasedWorker(sys.proc(n), bar, 3, phase_of,
                               &violation, 7));
    runAll(sys);
    EXPECT_FALSE(violation);
    EXPECT_EQ(bar.roundsCompleted(), 6u);
}

TEST(TreeBarrier, SingleParticipantIsTrivial)
{
    System sys(smallConfig(SyncPolicy::INV, 4));
    TreeBarrier bar(sys, 1);
    sys.spawn([](Proc &p, TreeBarrier &b) -> Task {
        for (int i = 0; i < 5; ++i)
            co_await b.arrive(p);
    }(sys.proc(0), bar));
    runAll(sys);
    EXPECT_EQ(bar.roundsCompleted(), 5u);
}

TEST(TreeBarrier, UsesOnlyLoadsAndStores)
{
    System sys(smallConfig(SyncPolicy::INV, 8));
    TreeBarrier bar(sys, 8);
    for (NodeId n = 0; n < 8; ++n) {
        sys.spawn([](Proc &p, TreeBarrier &b) -> Task {
            co_await b.arrive(p);
        }(sys.proc(n), bar));
    }
    runAll(sys);
    const SysStats &st = sys.stats();
    for (AtomicOp op : {AtomicOp::TAS, AtomicOp::FAA, AtomicOp::FAS,
                        AtomicOp::FAO, AtomicOp::CAS, AtomicOp::LL,
                        AtomicOp::SC})
        EXPECT_EQ(st.op_latency[static_cast<int>(op)].count, 0u);
}
