/**
 * @file
 * Tests for the message-loss recovery layer: requester timeouts with
 * idempotent retransmission, the home-side dedup/reply cache, link
 * quarantine with reroute, the drop-accounting ledger, and the
 * zero-cost-when-off promise. The directed duplicate tests force
 * retransmissions without any loss (a tiny req_timeout makes every
 * reply "late"), so the home provably sees duplicates of requests it
 * already served and must answer them from the reply cache without
 * re-executing the operation.
 */

#include <gtest/gtest.h>

#include "helpers.hh"

#include "fault/fault.hh"
#include "fault/recovery.hh"
#include "workloads/counter_apps.hh"

using namespace dsmtest;

namespace {

/** Recovery armed with no loss: timers, dedup, no dropped messages. */
Config
recoveryConfig(SyncPolicy pol, int procs, Tick req_timeout)
{
    Config cfg = smallConfig(pol, procs);
    cfg.faults.enabled = true;
    cfg.faults.req_timeout = req_timeout;
    return cfg;
}

/** Random message loss (and optionally flaky links) on @p procs nodes. */
Config
lossConfig(SyncPolicy pol, int procs, const std::string &spec,
           std::uint64_t seed)
{
    Config cfg = smallConfig(pol, procs);
    cfg.machine.seed = seed;
    std::string err = cfg.faults.parse(spec);
    EXPECT_EQ(err, "");
    return cfg;
}

void
expectAccounted(System &sys)
{
    for (const std::string &v : checkFaultAccounting(sys))
        ADD_FAILURE() << "fault accounting violation: " << v;
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

} // namespace

TEST(RecoveryConfig, LossRequiresTimeout)
{
    Config cfg = smallConfig();
    EXPECT_EQ(cfg.faults.parse("drop_prob=0.01"), "");
    EXPECT_NE(cfg.validate().find("req_timeout must be nonzero"),
              std::string::npos);
    EXPECT_EQ(cfg.faults.parse("drop_prob=0.01,req_timeout=500"), "");
    EXPECT_EQ(cfg.validate(), "");
    EXPECT_TRUE(cfg.faults.lossEnabled());
    EXPECT_TRUE(cfg.faults.recoveryEnabled());
}

TEST(RecoveryConfig, QuarantineRequiresWindow)
{
    Config cfg = smallConfig();
    EXPECT_EQ(cfg.faults.parse("drop_prob=0.01,req_timeout=500,"
                               "quarantine_k=2"),
              "");
    EXPECT_NE(cfg.validate().find("quarantine_window"),
              std::string::npos);
}

TEST(Recovery, ZeroCostWhenOff)
{
    System sys(smallConfig());
    Addr a = sys.allocSync();
    spawnAdders(sys, a, 4, 8);
    runAll(sys);
    EXPECT_EQ(sys.debugRead(a), 32u);
    EXPECT_EQ(sys.recoveryState().pendingDrops(), 0u);
    const Recovery::Counters &rc = sys.recoveryState().counters();
    EXPECT_EQ(rc.drops + rc.retransmits + rc.dup_requests +
                  rc.stale_replies + rc.links_quarantined,
              0u);
    // The stats registry must not even mention the recovery domain.
    EXPECT_EQ(sys.statsJson().find("recovery."), std::string::npos);
    expectAccounted(sys);
}

TEST(Recovery, LegacyFaultMixLeavesRecoveryOff)
{
    // The pre-existing fault mix has no loss and no timeout: the
    // recovery layer must stay off and its stats absent, so legacy
    // fault campaigns keep their exact JSON shape.
    Config cfg = smallConfig(SyncPolicy::INV, 8);
    EXPECT_EQ(cfg.faults.parse("default"), "");
    System sys(cfg);
    EXPECT_TRUE(sys.cfg().faults.enabled);
    EXPECT_FALSE(sys.cfg().faults.recoveryEnabled());
    EXPECT_EQ(sys.statsJson().find("recovery."), std::string::npos);
}

TEST(Recovery, DuplicateFapAnsweredFromCacheUncached)
{
    // UNC FAP executes fetch&add in the home's memory. A 16-cycle
    // req_timeout fires long before any reply can cross the mesh, so
    // every operation is retransmitted and the home sees duplicates of
    // requests it already executed. The reply cache must answer them
    // without touching memory again: the counter is incremented
    // exactly once per logical operation.
    Config cfg = recoveryConfig(SyncPolicy::UNC, 4, 16);
    System sys(cfg);
    Addr a = sys.allocSync();
    spawnAdders(sys, a, 4, 8);
    runAll(sys);
    EXPECT_EQ(sys.debugRead(a), 32u);

    const Recovery::Counters &rc = sys.recoveryState().counters();
    EXPECT_GT(rc.retransmits, 0u);
    EXPECT_GT(rc.dup_requests, 0u);
    // Duplicates of an executed UNC FAP are answered from the cache,
    // never re-executed.
    EXPECT_GT(rc.dup_replayed, 0u);
    EXPECT_EQ(rc.dup_reprocessed, 0u);
    // Replayed replies race the original; the requester's stale guard
    // absorbs the losers.
    EXPECT_GT(rc.stale_replies, 0u);
    // No loss was configured: the ledger stays empty.
    EXPECT_EQ(rc.drops, 0u);
    expectAccounted(sys);
}

TEST(Recovery, DuplicateFapExactUnderEveryPolicy)
{
    for (SyncPolicy pol :
         {SyncPolicy::INV, SyncPolicy::UPD, SyncPolicy::UNC}) {
        Config cfg = recoveryConfig(pol, 8, 16);
        System sys(cfg);
        Addr a = sys.allocSync();
        spawnAdders(sys, a, 8, 6);
        runAll(sys);
        EXPECT_EQ(sys.debugRead(a), 48u) << toString(pol);
        EXPECT_GT(sys.recoveryState().counters().dup_requests, 0u)
            << toString(pol);
        expectAccounted(sys);
    }
}

TEST(Recovery, StaleDuplicateOfRetiredSeqIsDiscarded)
{
    // A duplicate that arrives after the requester moved on to a newer
    // seq must be discarded without a reply: its slot (and cached
    // reply) were recycled by the newer request, so replaying would
    // hand out another operation's answer. Normal delivery can't
    // reorder same-path messages, so the late duplicate is injected
    // directly, emulating the extreme delay the guard exists for.
    Config cfg = recoveryConfig(SyncPolicy::UNC, 4, 1'000'000);
    System sys(cfg);
    Addr a = sys.allocSync();
    NodeId home = sys.homeOf(a);
    NodeId req = home == 2 ? 3 : 2;
    // Two completed operations from one requester: seqs 1 and 2
    // retired, the home's dedup slot for it now holds seq 2.
    EXPECT_EQ(runOp(sys, req, AtomicOp::FAA, a, 1).value, 0u);
    EXPECT_EQ(runOp(sys, req, AtomicOp::FAA, a, 1).value, 1u);
    EXPECT_EQ(sys.debugRead(a), 2u);

    Msg dup;
    dup.type = MsgType::UNC_REQ;
    dup.src = req;
    dup.dst = home;
    dup.requester = req;
    dup.addr = blockBase(a);
    dup.word_addr = a;
    dup.op = AtomicOp::FAA;
    dup.value = 1;
    dup.chain = 1;
    dup.seq = 1; // retired: the slot now belongs to seq 2
    dup.attempt = 2;
    sys.mesh().send(dup);
    sys.eq().run();

    // Discarded: no re-execution, no reply, counted as stale.
    EXPECT_EQ(sys.debugRead(a), 2u);
    const Recovery::Counters &rc = sys.recoveryState().counters();
    EXPECT_EQ(rc.dup_requests, 1u);
    EXPECT_EQ(rc.dup_stale, 1u);
    EXPECT_EQ(rc.dup_replayed, 0u);
    EXPECT_EQ(rc.dup_reprocessed, 0u);
    expectAccounted(sys);
}

TEST(Recovery, RandomLossRecoversExactly)
{
    // End-to-end: real drops at the mesh, covered by retransmission.
    // Across policies and seeds every run must complete with an exact
    // counter, a coherent end state, and a reconciled drop ledger.
    std::uint64_t drops = 0, retransmits = 0;
    for (SyncPolicy pol :
         {SyncPolicy::INV, SyncPolicy::UPD, SyncPolicy::UNC}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            Config cfg = lossConfig(
                pol, 8, "drop_prob=0.005,req_timeout=2000", seed);
            System sys(cfg);
            Addr a = sys.allocSync();
            spawnAdders(sys, a, 8, 12);
            runAll(sys);
            EXPECT_EQ(sys.debugRead(a), 96u)
                << toString(pol) << " seed " << seed;
            expectAccounted(sys);
            const Recovery::Counters &rc =
                sys.recoveryState().counters();
            EXPECT_EQ(rc.drops,
                      rc.retransmit_covered + rc.quarantine_covered);
            EXPECT_EQ(sys.recoveryState().pendingDrops(), 0u);
            drops += rc.drops;
            retransmits += rc.retransmits;
        }
    }
    // The sweep must actually exercise loss somewhere.
    EXPECT_GT(drops, 0u);
    EXPECT_GT(retransmits, 0u);
}

TEST(Recovery, FlakyLinkQuarantineAndReroute)
{
    // Whole-link episodes at 100% loss with quarantine_k=1: the first
    // drop quarantines the link, later traffic reroutes around it (or,
    // where XY and YX coincide, keeps being covered), and the run
    // still completes exactly. Counters homed across the mesh keep
    // most links busy so the randomly placed episodes hit traffic;
    // several seeds vary which links they land on.
    std::uint64_t quarantined = 0, flaky = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Config cfg = lossConfig(
            SyncPolicy::INV, 8,
            "flaky_links=2,flaky_window=2000,flaky_duration=40000,"
            "flaky_drop_prob=1,req_timeout=2000,quarantine_k=1,"
            "quarantine_window=1000000",
            seed);
        System sys(cfg);
        ASSERT_EQ(sys.faultPlan().episodes().size(), 2u);
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
        const Recovery::Counters &rc = sys.recoveryState().counters();
        EXPECT_EQ(rc.drops,
                  rc.retransmit_covered + rc.quarantine_covered);
        quarantined += rc.links_quarantined;
        flaky += sys.faultPlan().counters().flaky_drops;
        if (rc.links_quarantined > 0) {
            // The quarantine must be observable in the stats output
            // (the registry nests dotted names).
            EXPECT_NE(sys.statsJson().find("\"links_quarantined\""),
                      std::string::npos);
        }
    }
    // At least one seed's episode must have hit live traffic.
    EXPECT_GT(flaky, 0u);
    EXPECT_GT(quarantined, 0u);
}

TEST(Recovery, DeterministicAtFixedSeed)
{
    // Loss, recovery, and quarantine all draw from counted streams and
    // deterministic timers: the same seed must reproduce the run
    // bit-for-bit.
    std::string json[2];
    Tick end[2];
    for (int i = 0; i < 2; ++i) {
        Config cfg = lossConfig(
            SyncPolicy::INV, 8,
            "drop_prob=0.01,flaky_links=1,flaky_window=2000,"
            "flaky_duration=20000,flaky_drop_prob=1,req_timeout=1500,"
            "quarantine_k=2,quarantine_window=1000000",
            42);
        System sys(cfg);
        Addr a = sys.allocSync();
        spawnAdders(sys, a, 8, 10);
        RunResult r = sys.run();
        ASSERT_TRUE(r.completed);
        json[i] = sys.statsJson();
        end[i] = r.end_tick;
    }
    EXPECT_EQ(end[0], end[1]);
    EXPECT_EQ(json[0], json[1]);
}

TEST(Recovery, CasUnderLossStaysLinearizable)
{
    // CAS success/failure verdicts must stay exact under duplication
    // and loss: per node, wins = observed successful CASes, and the
    // final value equals total wins. Every policy's CAS path (home
    // CAS, cached CAS, forwarded CAS) sees duplicates here.
    for (SyncPolicy pol :
         {SyncPolicy::INV, SyncPolicy::UPD, SyncPolicy::UNC}) {
        Config cfg = lossConfig(
            pol, 8, "drop_prob=0.005,req_timeout=2000", 7);
        System sys(cfg);
        Addr a = sys.allocSync();
        std::uint64_t wins[8] = {};
        for (NodeId n = 0; n < 8; ++n) {
            sys.spawn([](Proc &p, Addr addr, std::uint64_t *w) -> Task {
                for (int i = 0; i < 10; ++i) {
                    for (;;) {
                        Word old = (co_await p.load(addr)).value;
                        OpResult r =
                            co_await p.cas(addr, old, old + 1);
                        if (r.success) {
                            ++*w;
                            break;
                        }
                    }
                }
            }(sys.proc(n), a, &wins[n]));
        }
        runAll(sys);
        std::uint64_t total = 0;
        for (std::uint64_t w : wins)
            total += w;
        EXPECT_EQ(total, 80u) << toString(pol);
        EXPECT_EQ(sys.debugRead(a), 80u) << toString(pol);
        expectAccounted(sys);
    }
}

TEST(Recovery, ClearStatsCarriesPendingLedger)
{
    // clearStats() between phases must keep the ledger reconcilable:
    // counters reset, but drops still pending coverage are re-seeded
    // so quiesced accounting still closes at the end of the next
    // phase. With the system quiesced here, pending is zero and the
    // cleared ledger is simply empty.
    Config cfg = lossConfig(SyncPolicy::INV, 8,
                            "drop_prob=0.01,req_timeout=1500", 11);
    System sys(cfg);
    Addr a = sys.allocSync();
    spawnAdders(sys, a, 8, 8);
    runAll(sys);
    EXPECT_EQ(sys.debugRead(a), 64u);
    sys.clearStats();
    const Recovery::Counters &rc = sys.recoveryState().counters();
    EXPECT_EQ(rc.drops, 0u);
    EXPECT_EQ(sys.recoveryState().pendingDrops(), 0u);
    expectAccounted(sys);

    // A second measured phase on the cleared counters still closes.
    spawnAdders(sys, a, 8, 8);
    runAll(sys);
    EXPECT_EQ(sys.debugRead(a), 128u);
    expectAccounted(sys);
}

TEST(Recovery, LockFreeCounterMatrixUnderLoss)
{
    // The reduced campaign chaos_sweep's loss-only levels run at scale:
    // every primitive's lock-free counter, with loss, must complete
    // with an exact result and reconciled accounting.
    for (Primitive prim :
         {Primitive::FAP, Primitive::LLSC, Primitive::CAS}) {
        Config cfg = lossConfig(
            SyncPolicy::INV, 8,
            "drop_prob=0.005,req_timeout=2000,quarantine_k=3,"
            "quarantine_window=100000",
            3);
        System sys(cfg);
        CounterAppConfig app;
        app.kind = CounterKind::LOCK_FREE;
        app.prim = prim;
        app.contention = 4;
        app.phases = 16;
        CounterAppResult r = runCounterApp(sys, app);
        ASSERT_TRUE(r.completed) << toString(prim);
        EXPECT_TRUE(r.correct) << toString(prim);
        expectCoherent(sys);
        expectAccounted(sys);
    }
}
