/**
 * @file
 * Tests for the deterministic fault-injection layer and the
 * forward-progress watchdogs: FaultConfig parsing, zero-cost-when-off,
 * bit-exact reproducibility per seed, a reduced randomized campaign
 * over the application implementation matrix, and directed
 * deadlock/livelock scenarios that must be detected and diagnosed
 * rather than hanging the test suite.
 */

#include "helpers.hh"

#include "exp/experiment.hh"
#include "fault/fault.hh"
#include "workloads/counter_apps.hh"

using namespace dsm;
using namespace dsmtest;

namespace {

/** The standard fault mix on a small machine. */
Config
faultyConfig(const SyncConfig &sync, std::uint64_t seed)
{
    Config cfg;
    cfg.machine.num_procs = 8;
    cfg.machine.mesh_x = 4;
    cfg.machine.mesh_y = 2;
    cfg.machine.seed = seed;
    cfg.sync = sync;
    std::string err = cfg.faults.parse("default");
    EXPECT_EQ(err, "");
    return cfg;
}

/** Run the lock-free counter app and return its result. */
CounterAppResult
runCounter(System &sys, Primitive prim, int contention, int phases)
{
    CounterAppConfig app;
    app.kind = CounterKind::LOCK_FREE;
    app.prim = prim;
    app.contention = contention;
    app.phases = phases;
    return runCounterApp(sys, app);
}

} // namespace

TEST(FaultConfig, ParseDefaultMix)
{
    FaultConfig fc;
    EXPECT_EQ(fc.parse("default"), "");
    EXPECT_TRUE(fc.enabled);
    EXPECT_DOUBLE_EQ(fc.msg_jitter_prob, 0.2);
    EXPECT_EQ(fc.msg_jitter_max, 64u);
    EXPECT_DOUBLE_EQ(fc.resv_drop_prob, 0.05);
    EXPECT_DOUBLE_EQ(fc.evict_prob, 0.02);
    EXPECT_DOUBLE_EQ(fc.nack_prob, 0.1);
    EXPECT_EQ(fc.max_extra_nacks, 4);
}

TEST(FaultConfig, ParseKeyValueSpec)
{
    FaultConfig fc;
    EXPECT_EQ(fc.parse("nack_prob=0.5,jitter_max=16,seed=7,"
                       "max_extra_nacks=2"),
              "");
    EXPECT_TRUE(fc.enabled);
    EXPECT_DOUBLE_EQ(fc.nack_prob, 0.5);
    EXPECT_EQ(fc.msg_jitter_max, 16u);
    EXPECT_EQ(fc.seed, 7u);
    EXPECT_EQ(fc.max_extra_nacks, 2);
    // Unmentioned knobs keep their defaults.
    EXPECT_DOUBLE_EQ(fc.msg_jitter_prob, 0.0);
}

TEST(FaultConfig, ParseErrors)
{
    FaultConfig fc;
    EXPECT_NE(fc.parse("bogus").find("not key=value"),
              std::string::npos);
    EXPECT_NE(fc.parse("nack_prob=abc").find("not a number"),
              std::string::npos);
    EXPECT_NE(fc.parse("zorp=1").find("unknown fault spec key"),
              std::string::npos);
}

TEST(FaultConfig, ValidateRejectsBadProbability)
{
    Config cfg;
    EXPECT_EQ(cfg.faults.parse("nack_prob=1.5"), "");
    EXPECT_EQ(cfg.validate(),
              "faults.nack_prob must be in [0, 1], got 1.5");
}

TEST(FaultInjection, ZeroCostWhenOff)
{
    System sys(smallConfig());
    CounterAppResult r = runCounter(sys, Primitive::FAP, 4, 4);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.correct);
    EXPECT_EQ(sys.faultPlan().draws(), 0u);
    EXPECT_FALSE(sys.watchdogState().tripped());
    const FaultPlan::Counters &c = sys.faultPlan().counters();
    EXPECT_EQ(c.jitter_applied + c.jitter_cycles + c.resv_drops +
                  c.forced_evictions + c.nacks_injected,
              0u);
    // The stats registry must not even mention the fault domain.
    EXPECT_EQ(sys.statsJson().find("fault."), std::string::npos);
    EXPECT_TRUE(checkFaultAccounting(sys).empty());
}

TEST(FaultInjection, DeterministicAtFixedSeed)
{
    SyncConfig sync;
    std::string json[2];
    Tick end[2];
    for (int i = 0; i < 2; ++i) {
        System sys(faultyConfig(sync, 42));
        CounterAppResult r = runCounter(sys, Primitive::LLSC, 4, 4);
        ASSERT_TRUE(r.completed);
        EXPECT_TRUE(r.correct);
        json[i] = sys.statsJson();
        end[i] = r.elapsed;
    }
    EXPECT_EQ(json[0], json[1]);
    EXPECT_EQ(end[0], end[1]);
}

TEST(FaultInjection, DifferentSeedsDiverge)
{
    SyncConfig sync;
    std::uint64_t jitter[2];
    for (int i = 0; i < 2; ++i) {
        System sys(faultyConfig(sync, 100 + i));
        CounterAppResult r = runCounter(sys, Primitive::CAS, 4, 4);
        ASSERT_TRUE(r.completed);
        jitter[i] = sys.faultPlan().counters().jitter_cycles;
    }
    EXPECT_NE(jitter[0], jitter[1]);
}

TEST(FaultInjection, CampaignAcrossImplMatrix)
{
    std::uint64_t total_injected = 0;
    for (const ImplCase &impl : applicationMatrix()) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            Config cfg = faultyConfig(impl.sync, seed);
            cfg.watchdog.enabled = true;
            cfg.watchdog.max_retries = 100000;
            cfg.watchdog.max_txn_age = 5'000'000;
            cfg.watchdog.scan_period = 50'000;
            System sys(cfg);
            CounterAppResult r = runCounter(sys, impl.prim, 4, 2);
            ASSERT_TRUE(r.completed)
                << impl.label << " seed " << seed << ":\n"
                << (sys.watchdogState().tripped()
                        ? sys.watchdogState().diagnosis()
                        : Watchdog::blockedTxnDump(sys));
            EXPECT_TRUE(r.correct) << impl.label << " seed " << seed;
            for (const std::string &v : checkCoherence(sys))
                ADD_FAILURE() << impl.label << " seed " << seed << ": "
                              << v;
            for (const std::string &v : checkFaultAccounting(sys))
                ADD_FAILURE() << impl.label << " seed " << seed << ": "
                              << v;
            const FaultPlan::Counters &c = sys.faultPlan().counters();
            total_injected += c.nacks_injected + c.resv_drops +
                              c.forced_evictions + c.jitter_applied;
            EXPECT_FALSE(sys.watchdogState().tripped())
                << impl.label << " seed " << seed << ":\n"
                << sys.watchdogState().diagnosis();
        }
    }
    // The campaign must actually have exercised the fault paths.
    EXPECT_GT(total_injected, 0u);
}

TEST(Watchdog, DeadlockDetectedAndDiagnosed)
{
    Config cfg = smallConfig();
    cfg.txn_trace.enabled = true;
    System sys(cfg);
    Addr a = sys.allocAt(0, 8);
    // Black-hole the home node: node 1's GET_X vanishes, the event
    // queue drains, and the run must report a deadlock, not hang.
    sys.mesh().setHandler(0, [](const Msg &) {});
    sys.spawn(doStore(sys.proc(1), a, 7));
    RunResult r = sys.run();
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.deadlocked);
    EXPECT_NE(r.diagnosis.find("deadlock"), std::string::npos)
        << r.diagnosis;
    EXPECT_NE(r.diagnosis.find("node 1"), std::string::npos)
        << r.diagnosis;
    sys.reapTasks();
}

TEST(Watchdog, LivelockRetryBoundTrips)
{
    Config cfg = smallConfig();
    // Every NACKable request is NACKed forever (no streak cap): a true
    // livelock. The retry bound must trip and name the victim.
    ASSERT_EQ(cfg.faults.parse("nack_prob=1.0,max_extra_nacks=0"), "");
    cfg.watchdog.enabled = true;
    cfg.watchdog.max_retries = 10;
    System sys(cfg);
    Addr a = sys.allocAt(0, 8);
    sys.spawn(doStore(sys.proc(1), a, 7));
    RunResult r = sys.run();
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.livelocked);
    EXPECT_NE(r.diagnosis.find("retry bound"), std::string::npos)
        << r.diagnosis;
    EXPECT_NE(r.diagnosis.find("node 1"), std::string::npos)
        << r.diagnosis;
    EXPECT_EQ(*sys.watchdogState().tripsCounter(), 1u);
    sys.reapTasks();
}

TEST(Watchdog, LivelockAgeBoundTrips)
{
    Config cfg = smallConfig();
    ASSERT_EQ(cfg.faults.parse("nack_prob=1.0,max_extra_nacks=0"), "");
    cfg.watchdog.enabled = true;
    cfg.watchdog.max_retries = 0; // retry bound off; age bound only
    cfg.watchdog.max_txn_age = 2000;
    cfg.watchdog.scan_period = 100;
    System sys(cfg);
    Addr a = sys.allocAt(0, 8);
    sys.spawn(doStore(sys.proc(1), a, 7));
    RunResult r = sys.run();
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.livelocked);
    EXPECT_NE(r.diagnosis.find("age bound"), std::string::npos)
        << r.diagnosis;
    sys.reapTasks();
}

TEST(Watchdog, QuietOnHealthyRun)
{
    Config cfg = smallConfig();
    cfg.watchdog.enabled = true;
    cfg.watchdog.max_retries = 100000;
    cfg.watchdog.max_txn_age = 5'000'000;
    cfg.watchdog.scan_period = 10'000;
    System sys(cfg);
    CounterAppResult r = runCounter(sys, Primitive::FAP, 4, 4);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.correct);
    EXPECT_FALSE(sys.watchdogState().tripped());
    EXPECT_EQ(*sys.watchdogState().tripsCounter(), 0u);
}
