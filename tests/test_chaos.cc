/**
 * @file
 * Tests for the faulty-channel chaos axes (reordering, duplication,
 * payload corruption) and their epoch/sequence-hardened absorption:
 * config gating, the zero-cost-when-off promise, per-axis ledger
 * closure (every injected event detected or absorbed and reconciled
 * by checkFaultAccounting), the quarantine x reordering interaction,
 * seeded determinism, and the adaptive credit threshold
 * (serve.credit_threshold=auto) derived from the telemetry
 * queue-depth series.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "helpers.hh"

#include "fault/fault.hh"
#include "fault/recovery.hh"
#include "workloads/counter_apps.hh"

using namespace dsmtest;

namespace {

/** Chaos fault spec on @p procs nodes with a seeded machine. */
Config
chaosConfig(SyncPolicy pol, int procs, const std::string &spec,
            std::uint64_t seed)
{
    Config cfg = smallConfig(pol, procs);
    cfg.machine.seed = seed;
    std::string err = cfg.faults.parse(spec);
    EXPECT_EQ(err, "");
    EXPECT_EQ(cfg.validate(), "");
    return cfg;
}

void
expectAccounted(System &sys)
{
    for (const std::string &v : checkFaultAccounting(sys))
        ADD_FAILURE() << "fault accounting violation: " << v;
    for (const std::string &v : checkCoherence(sys))
        ADD_FAILURE() << "coherence violation: " << v;
}

/** n concurrent fetch&add updaters, k increments each. */
void
spawnAdders(System &sys, Addr a, int nodes, int count)
{
    for (NodeId n = 0; n < nodes; ++n) {
        sys.spawn([](Proc &p, Addr addr, int cnt) -> Task {
            for (int i = 0; i < cnt; ++i)
                co_await p.fetchAdd(addr, 1);
        }(sys.proc(n), a, count));
    }
}

/** n concurrent LL/SC incrementers, k successful updates each. */
void
spawnLlscAdders(System &sys, Addr a, int nodes, int count)
{
    for (NodeId n = 0; n < nodes; ++n) {
        sys.spawn([](Proc &p, Addr addr, int cnt) -> Task {
            for (int i = 0; i < cnt; ++i) {
                for (;;) {
                    OpResult v = co_await p.ll(addr);
                    OpResult s = co_await p.sc(addr, v.value + 1);
                    if (s.success)
                        break;
                }
            }
        }(sys.proc(n), a, count));
    }
}

} // namespace

// ----- Config parsing and validation -----

TEST(ChaosConfig, AxesRequireTheirBounds)
{
    Config cfg = smallConfig();
    EXPECT_EQ(cfg.faults.parse("reorder_prob=0.01,req_timeout=500"), "");
    EXPECT_NE(cfg.validate().find("reorder_max"), std::string::npos);

    cfg = smallConfig();
    EXPECT_EQ(cfg.faults.parse("dup_prob=0.01,dup_delay=0,"
                               "req_timeout=500"),
              "");
    EXPECT_NE(cfg.validate().find("dup_delay"), std::string::npos);
}

TEST(ChaosConfig, ChaosRequiresRecovery)
{
    // Reordered/duplicated/corrupted channels are only survivable with
    // the sequence guards and retransmission machinery armed.
    Config cfg = smallConfig();
    EXPECT_EQ(cfg.faults.parse("corrupt_prob=0.01"), "");
    EXPECT_NE(cfg.validate().find("req_timeout"), std::string::npos);
}

TEST(ChaosConfig, ChaosEnabledPredicate)
{
    Config cfg = smallConfig();
    EXPECT_FALSE(cfg.faults.chaosEnabled());
    EXPECT_EQ(cfg.faults.parse("drop_prob=0.01,req_timeout=500"), "");
    EXPECT_FALSE(cfg.faults.chaosEnabled());
    EXPECT_FALSE(cfg.faults.reorderPossible());
    EXPECT_EQ(cfg.faults.parse("reorder_prob=0.01,reorder_max=16,"
                               "req_timeout=500"),
              "");
    EXPECT_TRUE(cfg.faults.chaosEnabled());
    EXPECT_TRUE(cfg.faults.reorderPossible());
}

// ----- Zero cost when off -----

TEST(Chaos, ZeroCostWhenOff)
{
    // A fault-free run and a loss-only recovery run must not even
    // mention the chaos counters: existing configs keep their exact
    // stats JSON shape.
    System off(smallConfig());
    Addr a = off.allocSync();
    spawnAdders(off, a, 4, 8);
    runAll(off);
    EXPECT_EQ(off.debugRead(a), 32u);
    std::string js = off.statsJson();
    EXPECT_EQ(js.find("\"msg_reorders\""), std::string::npos);
    EXPECT_EQ(js.find("\"msg_dups\""), std::string::npos);
    EXPECT_EQ(js.find("\"msg_corruptions\""), std::string::npos);
    EXPECT_EQ(js.find("\"recovery\""), std::string::npos);

    Config loss = smallConfig(SyncPolicy::INV, 4);
    EXPECT_EQ(loss.faults.parse("drop_prob=0.001,req_timeout=2000"),
              "");
    System lsys(loss);
    Addr b = lsys.allocSync();
    spawnAdders(lsys, b, 4, 8);
    runAll(lsys);
    EXPECT_EQ(lsys.debugRead(b), 32u);
    js = lsys.statsJson();
    EXPECT_NE(js.find("\"drops\""), std::string::npos);
    EXPECT_EQ(js.find("\"msg_reorders\""), std::string::npos);
    EXPECT_EQ(js.find("\"corrupt_detected\""), std::string::npos);
    EXPECT_EQ(js.find("\"dups_absorbed\""), std::string::npos);
    EXPECT_EQ(js.find("\"reorders_delivered\""), std::string::npos);
}

TEST(Chaos, DeterministicStatsForSameSeed)
{
    const std::string spec =
        "jitter_prob=0.01,jitter_max=16,drop_prob=0.002,"
        "reorder_prob=0.005,reorder_max=32,dup_prob=0.005,dup_delay=64,"
        "corrupt_prob=0.002,req_timeout=2000";
    std::string first;
    for (int rep = 0; rep < 2; ++rep) {
        Config cfg = chaosConfig(SyncPolicy::INV, 8, spec, 7);
        System sys(cfg);
        Addr a = sys.allocSync();
        spawnAdders(sys, a, 8, 16);
        runAll(sys);
        EXPECT_EQ(sys.debugRead(a), 128u);
        if (rep == 0)
            first = sys.statsJson();
        else
            EXPECT_EQ(first, sys.statsJson());
    }
}

// ----- Per-axis ledger closure -----

TEST(Chaos, ReorderingAbsorbedExactly)
{
    // Pure reordering: no losses, every skewed delivery counted and
    // the run still exact and coherent (the fill-race guard keeps a
    // late grant from resurrecting an untracked copy).
    std::uint64_t reorders = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Config cfg = chaosConfig(
            SyncPolicy::INV, 8,
            "reorder_prob=0.02,reorder_max=64,req_timeout=2000", seed);
        System sys(cfg);
        Addr a = sys.allocSync();
        spawnAdders(sys, a, 8, 16);
        runAll(sys);
        EXPECT_EQ(sys.debugRead(a), 128u) << "seed " << seed;
        expectAccounted(sys);
        const FaultPlan::Counters &fc = sys.faultPlan().counters();
        const Recovery::Counters &rc =
            sys.recoveryState().counters();
        EXPECT_EQ(rc.reorders_delivered, fc.msg_reorders);
        EXPECT_EQ(rc.drops, 0u);
        reorders += fc.msg_reorders;
    }
    EXPECT_GT(reorders, 0u);
}

TEST(Chaos, DuplicatesAbsorbedExactly)
{
    // Pure duplication: every replayed delivery is absorbed by the
    // sequence guards, exactly once, with no protocol re-execution.
    std::uint64_t dups = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Config cfg = chaosConfig(
            SyncPolicy::UPD, 8,
            "dup_prob=0.02,dup_delay=32,req_timeout=2000", seed);
        System sys(cfg);
        Addr a = sys.allocSync();
        spawnAdders(sys, a, 8, 16);
        runAll(sys);
        EXPECT_EQ(sys.debugRead(a), 128u) << "seed " << seed;
        expectAccounted(sys);
        const FaultPlan::Counters &fc = sys.faultPlan().counters();
        const Recovery::Counters &rc =
            sys.recoveryState().counters();
        EXPECT_EQ(rc.dups_absorbed, fc.msg_dups);
        EXPECT_EQ(rc.drops, 0u);
        dups += fc.msg_dups;
    }
    EXPECT_GT(dups, 0u);
}

TEST(Chaos, CorruptionDetectedAsDrops)
{
    // Pure corruption: every bit-flip is caught by the checksum at the
    // ejection port and recovered like a loss — zero undetected.
    std::uint64_t corruptions = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Config cfg = chaosConfig(
            SyncPolicy::UNC, 8, "corrupt_prob=0.01,req_timeout=2000",
            seed);
        System sys(cfg);
        Addr a = sys.allocSync();
        spawnAdders(sys, a, 8, 16);
        runAll(sys);
        EXPECT_EQ(sys.debugRead(a), 128u) << "seed " << seed;
        expectAccounted(sys);
        const FaultPlan::Counters &fc = sys.faultPlan().counters();
        const Recovery::Counters &rc =
            sys.recoveryState().counters();
        EXPECT_EQ(rc.corrupt_detected, fc.msg_corruptions);
        EXPECT_EQ(rc.drops, fc.msg_corruptions);
        corruptions += fc.msg_corruptions;
    }
    EXPECT_GT(corruptions, 0u);
}

TEST(Chaos, CorruptionAlwaysLandsInChecksummedFootprint)
{
    // The checksum only covers the data block when the message carries
    // one; a flip on a payload-less message must be redirected into a
    // covered word, or the injection would be undetectable and the
    // ledger would never reconcile.
    FaultConfig fc;
    ASSERT_EQ(fc.parse("corrupt_prob=1,req_timeout=2000"), "");
    FaultPlan plan;
    MachineConfig mc;
    plan.configure(fc, 42, mc);
    for (int i = 0; i < 256; ++i) {
        Msg m;
        m.type = MsgType::GET_S;
        m.src = 0;
        m.dst = 1;
        m.requester = 0;
        m.addr = 0x40;
        m.word_addr = 0x40;
        m.seq = static_cast<std::uint64_t>(i) + 1;
        m.has_data = false;
        ASSERT_TRUE(plan.corruptMessage(m));
        EXPECT_NE(m.computeChecksum(), m.checksum) << "flip " << i;
    }
    EXPECT_EQ(plan.counters().msg_corruptions, 256u);
}

TEST(Chaos, CorruptionStampsTheChecksumOnlyOnAHit)
{
    // The injector hashes a message only when it damages it: a hit
    // stamps the undamaged message's checksum and then flips a bit the
    // stamp no longer verifies; a miss leaves every byte as it was,
    // checksum 0 included.
    FaultConfig fc;
    ASSERT_EQ(fc.parse("corrupt_prob=0.5,req_timeout=2000"), "");
    FaultPlan plan;
    MachineConfig mc;
    plan.configure(fc, 7, mc);
    int hits = 0, misses = 0;
    for (int i = 0; i < 256; ++i) {
        Msg m;
        m.type = i % 2 == 0 ? MsgType::GET_S : MsgType::DATA_S;
        m.src = 0;
        m.dst = 1;
        m.requester = 1;
        m.addr = 0x40;
        m.word_addr = 0x48;
        m.value = static_cast<Word>(i);
        m.seq = static_cast<std::uint64_t>(i) + 1;
        m.has_data = i % 2 != 0;
        m.data = {1, 2, 3, static_cast<Word>(i)};
        const std::uint32_t intact = m.computeChecksum();
        unsigned char before[sizeof(Msg)];
        std::memcpy(before, &m, sizeof(Msg));
        if (plan.corruptMessage(m)) {
            ++hits;
            EXPECT_EQ(m.checksum, intact) << "hit " << i;
            EXPECT_NE(m.computeChecksum(), m.checksum) << "hit " << i;
        } else {
            ++misses;
            EXPECT_EQ(std::memcmp(before, &m, sizeof(Msg)), 0)
                << "miss " << i;
            EXPECT_EQ(m.checksum, 0u) << "miss " << i;
        }
    }
    EXPECT_GT(hits, 0);
    EXPECT_GT(misses, 0);
    EXPECT_EQ(plan.counters().msg_corruptions,
              static_cast<std::uint64_t>(hits));
}

// ----- Interactions -----

TEST(Chaos, QuarantineWithReordering)
{
    // Flaky-link episodes with quarantine while reordering is armed:
    // the reroute and the skewed deliveries must compose — the run
    // completes exactly, links get quarantined, and the drop ledger
    // still closes over both loss sources.
    std::uint64_t quarantined = 0, reorders = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Config cfg = chaosConfig(
            SyncPolicy::INV, 8,
            "flaky_links=2,flaky_window=2000,flaky_duration=40000,"
            "flaky_drop_prob=1,quarantine_k=1,quarantine_window=1000000,"
            "reorder_prob=0.01,reorder_max=64,req_timeout=2000",
            seed);
        System sys(cfg);
        // Counters homed across the mesh keep most links busy so the
        // randomly placed episodes hit traffic (same layout as the
        // reorder-free quarantine test).
        Addr ctrs[4];
        const NodeId homes[4] = {0, 2, 5, 7};
        for (int i = 0; i < 4; ++i)
            ctrs[i] = sys.allocSyncAt(homes[i]);
        for (NodeId n = 0; n < 8; ++n) {
            sys.spawn([](Proc &p, const Addr *cs) -> Task {
                for (int i = 0; i < 24; ++i)
                    co_await p.fetchAdd(cs[i % 4], 1);
            }(sys.proc(n), ctrs));
        }
        runAll(sys);
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(sys.debugRead(ctrs[i]), 48u) << "seed " << seed;
        expectAccounted(sys);
        const Recovery::Counters &rc =
            sys.recoveryState().counters();
        EXPECT_EQ(rc.drops,
                  rc.retransmit_covered + rc.quarantine_covered);
        quarantined += rc.links_quarantined;
        reorders += sys.faultPlan().counters().msg_reorders;
    }
    EXPECT_GT(quarantined, 0u);
    EXPECT_GT(reorders, 0u);
}

TEST(Chaos, AllAxesLlscExact)
{
    // The full six-axis mix against the most race-prone primitive:
    // LL/SC under contention survives jitter, loss, reordering,
    // duplication, and corruption with an exact counter.
    Config cfg = chaosConfig(
        SyncPolicy::INV, 8,
        "jitter_prob=0.01,jitter_max=16,drop_prob=0.002,"
        "reorder_prob=0.005,reorder_max=32,dup_prob=0.005,dup_delay=64,"
        "corrupt_prob=0.002,resv_max_age=200000,req_timeout=2000",
        11);
    System sys(cfg);
    Addr a = sys.allocSync();
    spawnLlscAdders(sys, a, 8, 8);
    runAll(sys);
    EXPECT_EQ(sys.debugRead(a), 64u);
    expectAccounted(sys);
}

// ----- Adaptive credit threshold -----

TEST(AdaptiveCredit, ParseAndValidate)
{
    ServeConfig sv;
    EXPECT_EQ(sv.parse("credit_threshold=auto"), "");
    EXPECT_TRUE(sv.enabled);
    EXPECT_TRUE(sv.credit_auto);

    // auto requires both backpressure and the telemetry series.
    Config cfg = smallConfig();
    EXPECT_EQ(cfg.serve.parse("credit_threshold=auto"), "");
    EXPECT_NE(cfg.validate().find("telemetry"), std::string::npos);
    cfg.telemetry.enabled = true;
    EXPECT_EQ(cfg.validate(), "");
    cfg.serve.backpressure = false;
    EXPECT_NE(cfg.validate().find("backpressure"), std::string::npos);
}

TEST(AdaptiveCredit, ThresholdTracksQueueDepthSeries)
{
    // Rate step: a light phase, then a heavily contended phase. The
    // threshold must always equal max(2, 2*ceil(mean sampled depth))
    // — the documented pure function of the telemetry series — and
    // never fall below the floor.
    Config cfg = smallConfig(SyncPolicy::INV, 8);
    EXPECT_EQ(cfg.serve.parse("credit_threshold=auto"), "");
    cfg.telemetry.enabled = true;
    cfg.telemetry.window = 256;
    ASSERT_EQ(cfg.validate(), "");
    System sys(cfg);
    Addr a = sys.allocSync();

    spawnAdders(sys, a, 1, 4); // light
    runAll(sys);
    int t1 = sys.adaptiveCreditThreshold();
    EXPECT_GE(t1, 2);

    spawnAdders(sys, a, 8, 64); // step up
    runAll(sys);
    int t2 = sys.adaptiveCreditThreshold();
    EXPECT_GE(t2, 2);

    std::vector<std::uint64_t> v =
        sys.telemetryState().seriesValues("serve_queue_depth");
    ASSERT_FALSE(v.empty());
    std::uint64_t sum = 0;
    for (std::uint64_t x : v)
        sum += x;
    std::uint64_t mean_ceil =
        (sum + v.size() - 1) / static_cast<std::uint64_t>(v.size());
    std::uint64_t expect = 2 * mean_ceil;
    if (expect < 2)
        expect = 2;
    EXPECT_EQ(static_cast<std::uint64_t>(t2), expect);
}

TEST(AdaptiveCredit, StaticThresholdKeepsJsonShape)
{
    // serve without auto must not grow the telemetry export: the
    // queue-depth series is registered only under credit_auto.
    Config cfg = smallConfig(SyncPolicy::INV, 8);
    EXPECT_EQ(cfg.serve.parse("default"), "");
    cfg.telemetry.enabled = true;
    ASSERT_EQ(cfg.validate(), "");
    System sys(cfg);
    Addr a = sys.allocSync();
    spawnAdders(sys, a, 8, 8);
    runAll(sys);
    EXPECT_TRUE(
        sys.telemetryState().seriesValues("serve_queue_depth").empty());
    EXPECT_EQ(sys.statsJson().find("serve_queue_depth"),
              std::string::npos);
}
