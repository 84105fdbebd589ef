/** @file Unit tests for small support classes. */

#include <gtest/gtest.h>

#include "helpers.hh"
#include "sim/inline_vec.hh"
#include "sync/backoff.hh"

using namespace dsmtest;

TEST(Backoff, DelaysStayWithinDoublingBounds)
{
    Rng rng(3);
    Backoff b(16, 256);
    Tick bound = 16;
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(b.currentBound(), bound);
        Tick d = b.next(rng);
        EXPECT_GE(d, 1u);
        EXPECT_LE(d, bound);
        bound = bound * 2 > 256 ? 256 : bound * 2;
    }
    EXPECT_EQ(b.currentBound(), 256u); // capped
}

TEST(Backoff, ResetReturnsToBase)
{
    Rng rng(5);
    Backoff b(8, 1024);
    for (int i = 0; i < 5; ++i)
        b.next(rng);
    EXPECT_GT(b.currentBound(), 8u);
    b.reset();
    EXPECT_EQ(b.currentBound(), 8u);
}

TEST(LatencyStat, AccumulatesMeanAndMax)
{
    LatencyStat s;
    EXPECT_EQ(s.mean(), 0.0);
    s.sample(10);
    s.sample(20);
    s.sample(60);
    EXPECT_EQ(s.count, 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 30.0);
    EXPECT_EQ(s.max, 60u);
}

TEST(MeshStats, ClearStatsResets)
{
    System sys(smallConfig());
    Addr a = sys.allocAt(3, 8);
    runOp(sys, 0, AtomicOp::STORE, a, 1);
    EXPECT_GT(sys.mesh().stats().messages, 0u);
    sys.mesh().clearStats();
    EXPECT_EQ(sys.mesh().stats().messages, 0u);
    EXPECT_EQ(sys.mesh().stats().flits, 0u);
}

TEST(ProcStats, OpsIssuedCounts)
{
    System sys(smallConfig());
    Addr a = sys.alloc(8);
    auto before = sys.proc(0).opsIssued();
    runOp(sys, 0, AtomicOp::STORE, a, 1);
    runOp(sys, 0, AtomicOp::LOAD, a);
    EXPECT_EQ(sys.proc(0).opsIssued(), before + 2);
}

TEST(SysStats, ChainHistogramTracksPerOp)
{
    System sys(smallConfig(SyncPolicy::UNC));
    Addr a = sys.allocSyncAt(3);
    clearStats(sys);
    runOp(sys, 0, AtomicOp::FAA, a, 1); // 2 network messages
    runOp(sys, 3, AtomicOp::FAA, a, 1); // home-local: chain 0
    EXPECT_EQ(sys.stats().chain_length.samples(), 2u);
    EXPECT_EQ(sys.stats().chain_length.count(2), 1u);
    EXPECT_EQ(sys.stats().chain_length.count(0), 1u);
}

TEST(CacheStats, HitMissAccounting)
{
    System sys(smallConfig());
    Addr a = sys.alloc(8);
    runOp(sys, 0, AtomicOp::LOAD, a); // miss
    runOp(sys, 0, AtomicOp::LOAD, a); // hit
    runOp(sys, 0, AtomicOp::LOAD, a); // hit
    const CacheStats &cs = sys.ctrl(0).cache().stats();
    EXPECT_EQ(cs.misses, 1u);
    EXPECT_EQ(cs.hits, 2u);
}

TEST(InlineVec, PushPastCapacityKeepsOrder)
{
    InlineVec<int, 3> v;
    EXPECT_TRUE(v.empty());
    for (int n = 1; n <= 10; ++n) {
        v.push_back(n);
        EXPECT_EQ(v.size(), static_cast<std::size_t>(n));
        EXPECT_EQ(v.spilled(), n > 3);
        int want = 1;
        for (int x : v)
            EXPECT_EQ(x, want++);
        EXPECT_EQ(want, n + 1);
    }
}

TEST(InlineVec, CopyAndMoveKeepEveryElement)
{
    using Vec = InlineVec<int, 3>;
    auto expectHolds = [](const Vec &v, int n) {
        ASSERT_EQ(v.size(), static_cast<std::size_t>(n));
        int i = 0;
        for (int x : v)
            EXPECT_EQ(x, 10 * i++);
    };
    for (int n : {0, 2, 3, 4, 9}) {
        SCOPED_TRACE(n);
        Vec src;
        for (int i = 0; i < n; ++i)
            src.push_back(10 * i);

        Vec copy = src;
        expectHolds(copy, n);
        Vec assigned;
        assigned.push_back(-1);
        assigned = src;
        expectHolds(assigned, n);

        // A copy is independent of its source, inline or spilled.
        copy.push_back(-1);
        expectHolds(src, n);

        Vec moved = std::move(assigned);
        expectHolds(moved, n);
        Vec move_assigned;
        move_assigned = std::move(moved);
        expectHolds(move_assigned, n);
        expectHolds(moved, n);
    }
}
