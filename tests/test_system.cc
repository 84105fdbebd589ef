/** @file Unit tests for System assembly, allocation, and run control. */

#include <gtest/gtest.h>

#include "helpers.hh"

using namespace dsmtest;

TEST(System, HomeIsBlockInterleaved)
{
    System sys(smallConfig());
    EXPECT_EQ(sys.homeOf(0x00), 0);
    EXPECT_EQ(sys.homeOf(0x20), 1);
    EXPECT_EQ(sys.homeOf(0x40), 2);
    EXPECT_EQ(sys.homeOf(0x60), 3);
    EXPECT_EQ(sys.homeOf(0x80), 0);
    EXPECT_EQ(sys.homeOf(0x27), 1); // within the block
}

TEST(System, AllocRespectsAlignment)
{
    System sys(smallConfig());
    Addr a = sys.alloc(1, 1);
    Addr b = sys.alloc(8, 8);
    Addr c = sys.alloc(4, 32);
    EXPECT_EQ(b % 8, 0u);
    EXPECT_EQ(c % 32, 0u);
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
}

TEST(System, AllocAtPlacesHome)
{
    System sys(smallConfig());
    for (NodeId n = 0; n < 4; ++n) {
        Addr a = sys.allocAt(n, 8);
        EXPECT_EQ(sys.homeOf(a), n);
    }
}

TEST(System, AllocSyncMarksBlock)
{
    Config cfg = smallConfig(SyncPolicy::UNC);
    System sys(cfg);
    Addr s = sys.allocSync();
    Addr o = sys.alloc(8);
    EXPECT_TRUE(sys.isSync(s));
    EXPECT_TRUE(sys.isSync(s + 8)); // whole block is sync
    EXPECT_FALSE(sys.isSync(o));
    EXPECT_EQ(sys.policyOf(s), SyncPolicy::UNC);
    EXPECT_EQ(sys.policyOf(o), SyncPolicy::INV);
}

TEST(System, SyncVariablesDoNotShareBlocks)
{
    System sys(smallConfig());
    Addr a = sys.allocSync();
    Addr b = sys.allocSync();
    EXPECT_NE(blockBase(a), blockBase(b));
}

TEST(System, DebugReadSeesMemoryAndCaches)
{
    System sys(smallConfig());
    Addr a = sys.alloc(8);
    sys.writeInit(a, 5);
    EXPECT_EQ(sys.debugRead(a), 5u);
    runOp(sys, 1, AtomicOp::STORE, a, 6); // dirty in node 1's cache
    EXPECT_EQ(sys.debugRead(a), 6u);
}

TEST(System, RunReportsCompletion)
{
    System sys(smallConfig());
    Addr a = sys.alloc(8);
    sys.spawn(doStore(sys.proc(0), a, 1));
    RunResult r = sys.run();
    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(r.deadlocked);
    EXPECT_GT(r.events, 0u);
    EXPECT_EQ(sys.tasksPending(), 0);
}

TEST(System, DetectsDeadlock)
{
    System sys(smallConfig());
    // A barrier expecting 2 arrivals gets only 1: guaranteed deadlock.
    SyncBarrier bar(sys, 2);
    sys.spawn([](Proc &p, SyncBarrier &b) -> Task {
        co_await p.compute(5);
        co_await b.arrive();
    }(sys.proc(0), bar));
    RunResult r = sys.run();
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.deadlocked);
    EXPECT_EQ(sys.tasksPending(), 1);
}

TEST(System, SequentialRunsCompose)
{
    System sys(smallConfig());
    Addr a = sys.alloc(8);
    for (int i = 1; i <= 5; ++i) {
        sys.spawn(doStore(sys.proc(i % 4), a, static_cast<Word>(i)));
        RunResult r = sys.run();
        ASSERT_TRUE(r.completed);
        sys.reapTasks();
        EXPECT_EQ(sys.debugRead(a), static_cast<Word>(i));
    }
}

TEST(System, ComputeAdvancesTime)
{
    System sys(smallConfig());
    Tick before = sys.now();
    sys.spawn([](Proc &p) -> Task { co_await p.compute(123); }(
        sys.proc(0)));
    runAll(sys);
    EXPECT_GE(sys.now(), before + 123);
}

TEST(System, MagicBarrierSynchronizesAtOneTick)
{
    System sys(smallConfig());
    SyncBarrier bar(sys, 4);
    std::vector<Tick> release(4, 0);
    for (NodeId n = 0; n < 4; ++n) {
        sys.spawn([](Proc &p, SyncBarrier &b, Tick delay,
                     Tick *out) -> Task {
            co_await p.compute(delay);
            co_await b.arrive();
            *out = p.sys().now();
        }(sys.proc(n), bar, static_cast<Tick>(10 * (n + 1)),
          &release[static_cast<size_t>(n)]));
    }
    runAll(sys);
    EXPECT_EQ(bar.rounds(), 1u);
    for (int n = 1; n < 4; ++n)
        EXPECT_EQ(release[static_cast<size_t>(n)], release[0]);
    EXPECT_EQ(release[0], 40u + MAGIC_BARRIER_COST);
}

TEST(System, MagicBarrierIsReusable)
{
    System sys(smallConfig());
    SyncBarrier bar(sys, 4);
    int done = 0;
    for (NodeId n = 0; n < 4; ++n) {
        sys.spawn([](SyncBarrier &b, int rounds, int *d) -> Task {
            for (int i = 0; i < rounds; ++i)
                co_await b.arrive();
            ++*d;
        }(bar, 10, &done));
    }
    runAll(sys);
    EXPECT_EQ(done, 4);
    EXPECT_EQ(bar.rounds(), 10u);
}

TEST(System, DeterministicAcrossIdenticalRuns)
{
    auto run_once = [] {
        System sys(smallConfig(SyncPolicy::INV, 8));
        Addr a = sys.allocSync();
        for (NodeId n = 0; n < 8; ++n) {
            sys.spawn([](Proc &p, Addr addr) -> Task {
                for (int i = 0; i < 20; ++i)
                    co_await p.fetchAdd(addr, 1);
            }(sys.proc(n), a));
        }
        sys.run();
        return sys.now();
    };
    EXPECT_EQ(run_once(), run_once());
}
