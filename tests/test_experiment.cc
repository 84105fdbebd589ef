/**
 * @file
 * Unit tests for the Experiment / SweepRunner layer: deterministic
 * parallel execution (byte-identical results regardless of the job
 * count), declaration-order delivery, jobs-flag parsing, and the
 * fluent builder.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "cpu/system.hh"
#include "exp/experiment.hh"
#include "workloads/counter_apps.hh"

using namespace dsm;

namespace {

Config
smallConfig(SyncPolicy pol = SyncPolicy::INV)
{
    Config cfg;
    cfg.machine.num_procs = 16;
    cfg.machine.mesh_x = 4;
    cfg.machine.mesh_y = 4;
    cfg.sync.policy = pol;
    return cfg;
}

/** A fig3-style point: a contended lock-free counter run. */
std::string
counterStatsJson(const Config &cfg)
{
    System sys(cfg);
    CounterAppConfig app;
    app.kind = CounterKind::LOCK_FREE;
    app.prim = Primitive::FAP;
    app.contention = 8;
    app.phases = 8;
    CounterAppResult r = runCounterApp(sys, app);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.correct);
    return sys.statsJson();
}

} // namespace

TEST(SweepRunner, SameSeedIsByteIdenticalAcrossRuns)
{
    std::string first = counterStatsJson(smallConfig());
    std::string second = counterStatsJson(smallConfig());
    EXPECT_EQ(first, second);
}

TEST(SweepRunner, ParallelStatsMatchSerialByteForByte)
{
    // Reference: the same fig3-style point run inline.
    std::string reference = counterStatsJson(smallConfig());

    // Four copies of the point under a 4-thread runner; each worker
    // builds its own System from the point's Config, so every result
    // must equal the inline run byte for byte.
    std::vector<Point> points;
    for (int i = 0; i < 4; ++i) {
        points.push_back(Point{
            csprintf("copy%d", i), "", smallConfig(), [](System &sys) {
                CounterAppConfig app;
                app.kind = CounterKind::LOCK_FREE;
                app.prim = Primitive::FAP;
                app.contention = 8;
                app.phases = 8;
                CounterAppResult r = runCounterApp(sys, app);
                PointResult res;
                res.value = r.avg_cycles_per_update;
                res.text = sys.statsJson();
                return res;
            }});
    }
    SweepRunner runner(4);
    EXPECT_EQ(runner.jobs(), 4);
    std::vector<PointResult> results = runner.run(points);
    ASSERT_EQ(results.size(), 4u);
    for (const PointResult &r : results)
        EXPECT_EQ(r.text, reference);
}

TEST(SweepRunner, ResultsArriveInDeclarationOrder)
{
    std::vector<Point> points;
    for (int i = 0; i < 12; ++i) {
        points.push_back(Point{csprintf("p%d", i), "", smallConfig(),
                               [i](System &) {
                                   PointResult res;
                                   res.value = i;
                                   return res;
                               }});
    }
    SweepRunner runner(4);
    std::vector<PointResult> out;
    std::vector<std::size_t> completed;
    runner.runInto(points, out, [&](std::size_t i) {
        completed.push_back(i);
        // The hook contract: out[i] is filled before on_done(i).
        EXPECT_EQ(out[i].value, static_cast<double>(i));
    });
    ASSERT_EQ(out.size(), 12u);
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)].value, i);
    EXPECT_EQ(completed.size(), 12u);
}

TEST(SweepRunner, ResolveJobsPrefersRequestOverEnv)
{
    ::setenv("DSM_JOBS", "7", 1);
    EXPECT_EQ(SweepRunner::resolveJobs(3), 3);
    EXPECT_EQ(SweepRunner::resolveJobs(0), 7);
    ::unsetenv("DSM_JOBS");
    EXPECT_EQ(SweepRunner::resolveJobs(0), 1);
}

TEST(SweepRunnerDeath, MalformedJobsAreFatal)
{
    // Each must be rejected whole: no sign, fraction, exponent, space
    // or overflow reaches the thread count.
    for (const char *bad : {"0", "-1", "+4", " 4", "2.5", "1e3",
                            "99999999999"}) {
        ::setenv("DSM_JOBS", bad, 1);
        EXPECT_EXIT(SweepRunner::resolveJobs(0), testing::ExitedWithCode(1),
                    "DSM_JOBS must be a positive integer");
        const char *argv[] = {"bench", "--jobs", bad};
        EXPECT_EXIT(parseJobsFlag(3, const_cast<char **>(argv)),
                    testing::ExitedWithCode(1),
                    "--jobs expects a positive integer");
    }
    ::unsetenv("DSM_JOBS");
}

TEST(SweepRunnerDeath, MalformedSeedsAreFatal)
{
    for (const char *bad : {"0", "-1", "+7", " 7", "1e3", "0x10",
                            "18446744073709551616"}) {
        ::setenv("DSM_SEED", bad, 1);
        EXPECT_EXIT(seedFromEnv(), testing::ExitedWithCode(1),
                    "DSM_SEED must be a positive integer");
        const char *argv[] = {"bench", "--seed", bad};
        EXPECT_EXIT(parseSeedFlag(3, const_cast<char **>(argv)),
                    testing::ExitedWithCode(1),
                    "--seed expects a positive integer");
    }
    ::unsetenv("DSM_SEED");
}

TEST(SweepRunner, SeedFlagKeepsAllSixtyFourBits)
{
    const char *argv[] = {"bench", "--seed=18446744073709551615"};
    EXPECT_EQ(parseSeedFlag(2, const_cast<char **>(argv)),
              18446744073709551615ull);
    ::setenv("DSM_SEED", "9007199254740993", 1);
    EXPECT_EQ(seedFromEnv(), 9007199254740993ull);
    ::unsetenv("DSM_SEED");
}

TEST(SweepRunner, ParseJobsFlagForms)
{
    const char *a1[] = {"bench", "--jobs", "8"};
    EXPECT_EQ(parseJobsFlag(3, const_cast<char **>(a1)), 8);
    const char *a2[] = {"bench", "--jobs=6"};
    EXPECT_EQ(parseJobsFlag(2, const_cast<char **>(a2)), 6);
    const char *a3[] = {"bench", "-j", "2"};
    EXPECT_EQ(parseJobsFlag(3, const_cast<char **>(a3)), 2);
    const char *a4[] = {"bench"};
    EXPECT_EQ(parseJobsFlag(1, const_cast<char **>(a4)), 0);
}

namespace {

/** A small two-impl, two-sweep experiment over the fast counter app. */
Experiment
tinyExperiment()
{
    Experiment ex("tiny", smallConfig());
    ex.quiet(true).writeReport(false);
    ex.title("tiny experiment")
        .meta("figure", "none")
        .impls({{"INV FAP", Primitive::FAP, SyncConfig{}},
                {"INV LLSC", Primitive::LLSC, SyncConfig{}}})
        .workload([](System &sys, const ImplCase &impl,
                     const SweepPoint &sp) {
            CounterAppConfig app;
            app.kind = CounterKind::LOCK_FREE;
            app.prim = impl.prim;
            app.contention = static_cast<int>(sp.value);
            app.phases = 6;
            CounterAppResult r = runCounterApp(sys, app);
            PointResult res;
            res.value = r.avg_cycles_per_update;
            res.metrics = collectRunMetrics(sys);
            res.fields.set("contention", sp.value)
                .set("avg_cycles_per_update", r.avg_cycles_per_update);
            return res;
        })
        .sweep("c", {2, 4});
    return ex;
}

} // namespace

TEST(Experiment, ParallelRunIsByteIdenticalToSerial)
{
    Experiment serial = tinyExperiment();
    serial.run(1);
    Experiment parallel = tinyExperiment();
    parallel.run(4);

    EXPECT_FALSE(serial.tableText().empty());
    EXPECT_EQ(serial.tableText(), parallel.tableText());
    EXPECT_EQ(serial.reportJson(), parallel.reportJson());
    EXPECT_EQ(serial.reportPath(), "");
}

TEST(Experiment, MatrixExpandsImplMajor)
{
    Experiment ex = tinyExperiment();
    const std::vector<PointResult> &results = ex.run(1);
    // 2 impls x 2 sweep values, impl-major.
    ASSERT_EQ(results.size(), 4u);
    ASSERT_EQ(ex.numPoints(), 4u);
    const std::string &table = ex.tableText();
    std::size_t fap = table.find("INV FAP");
    std::size_t llsc = table.find("INV LLSC");
    ASSERT_NE(fap, std::string::npos);
    ASSERT_NE(llsc, std::string::npos);
    EXPECT_LT(fap, llsc);
    EXPECT_NE(table.find("c=2"), std::string::npos);
    EXPECT_NE(table.find("c=4"), std::string::npos);
}

TEST(Experiment, ExplicitPointsKeepDeclarationOrderInReport)
{
    Experiment ex("explicit", smallConfig());
    ex.quiet(true).writeReport(false).table(false).rowKey("case")
        .colKey("");
    for (int i = 0; i < 3; ++i) {
        ex.point(csprintf("case%d", i), "", smallConfig(),
                 [i](System &) {
                     PointResult res;
                     res.value = i * 10;
                     res.fields.set("v", i * 10);
                     return res;
                 });
    }
    ex.run(2);
    std::string json = ex.reportJson();
    std::size_t c0 = json.find("case0");
    std::size_t c1 = json.find("case1");
    std::size_t c2 = json.find("case2");
    ASSERT_NE(c0, std::string::npos);
    ASSERT_NE(c1, std::string::npos);
    ASSERT_NE(c2, std::string::npos);
    EXPECT_LT(c0, c1);
    EXPECT_LT(c1, c2);
}

TEST(Experiment, MetaKeepsSixtyFourBitSeed)
{
    // A seed past 2^32 must reach the report whole, not as its low word.
    Experiment ex("seeded", smallConfig());
    ex.meta("seed", std::uint64_t{4294967297});
    EXPECT_NE(ex.reportJson().find("\"seed\":4294967297"), std::string::npos)
        << ex.reportJson();
}

TEST(ExperimentDeath, SystemRejectsInvalidPointConfig)
{
    Config bad = smallConfig();
    bad.machine.mesh_x = 3; // 3x4 != 16
    EXPECT_EXIT({ System sys(bad); }, testing::ExitedWithCode(1),
                "invalid configuration: mesh 3x4 does not cover 16 "
                "procs");
}
