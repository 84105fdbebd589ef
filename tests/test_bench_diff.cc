/**
 * @file
 * Tests for the golden-results gate: identical reports pass, any move
 * of any result value fails in either direction, structural mismatches
 * are errors, and directory comparison matches snapshots by filename. Also
 * covers the provenance (git sha, wall time, host cores) that written
 * dsm-bench-v1 reports carry while toJson() stays byte-stable.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "sim/json.hh"
#include "stats/bench_diff.hh"
#include "stats/bench_report.hh"

namespace {

using dsm::BenchReport;
using dsm::DiffResult;

dsm::JsonValue
parsed(const std::string &text)
{
    dsm::JsonValue v;
    std::string err;
    EXPECT_TRUE(dsm::parseJson(text, &v, &err)) << err;
    return v;
}

/** A one-row dsm-bench-v1 document with the three metrics under test. */
std::string
report(std::uint64_t ops, double mean_latency, std::uint64_t nacks,
       const char *impl = "INV FAP", const char *name = "synthetic")
{
    BenchReport rep(name);
    rep.row()
        .set("impl", impl)
        .set("point", "c=8")
        .set("ops", ops)
        .set("mean_latency", mean_latency)
        .set("nacks", nacks);
    return rep.toJson();
}

TEST(BenchDiff, IdenticalReportsPass)
{
    std::string doc = report(100000, 1000.0, 500);
    DiffResult res = dsm::diffBenchReports(parsed(doc), parsed(doc));
    EXPECT_TRUE(res.ok());
    EXPECT_TRUE(res.regressions.empty());
    EXPECT_EQ(res.rows_compared, 1);
    EXPECT_EQ(res.metrics_compared, 3);
}

TEST(BenchDiff, TenPercentThroughputDropIsARegression)
{
    DiffResult res = dsm::diffBenchReports(
        parsed(report(100000, 1000.0, 500)),
        parsed(report(90000, 1000.0, 500)));
    EXPECT_FALSE(res.ok());
    ASSERT_EQ(res.regressions.size(), 1u);
    EXPECT_EQ(res.regressions[0].metric, "ops");
    EXPECT_NEAR(res.regressions[0].change_pct, -10.0, 0.01);
    EXPECT_EQ(res.regressions[0].row, "impl=INV FAP point=c=8");
}

TEST(BenchDiff, AMoveInEitherDirectionFails)
{
    // Latency up 10% and latency down 10% both fail: the baselines are
    // golden, so an "improvement" is a change in simulated behaviour.
    DiffResult worse = dsm::diffBenchReports(
        parsed(report(100000, 1000.0, 500)),
        parsed(report(100000, 1100.0, 500)));
    EXPECT_FALSE(worse.ok());
    ASSERT_EQ(worse.regressions.size(), 1u);
    EXPECT_EQ(worse.regressions[0].metric, "mean_latency");
    EXPECT_NEAR(worse.regressions[0].change_pct, 10.0, 0.01);

    DiffResult better = dsm::diffBenchReports(
        parsed(report(100000, 1000.0, 500)),
        parsed(report(100000, 900.0, 500)));
    EXPECT_FALSE(better.ok());
    ASSERT_EQ(better.regressions.size(), 1u);
    EXPECT_EQ(better.regressions[0].metric, "mean_latency");
    EXPECT_NEAR(better.regressions[0].change_pct, -10.0, 0.01);
}

TEST(BenchDiff, AOneUnitMoveFails)
{
    // No slack: 2 -> 3 NACKs fails, and so does one cycle of latency.
    DiffResult nacks = dsm::diffBenchReports(
        parsed(report(100000, 1000.0, 2)),
        parsed(report(100000, 1000.0, 3)));
    EXPECT_FALSE(nacks.ok());
    ASSERT_EQ(nacks.regressions.size(), 1u);
    EXPECT_EQ(nacks.regressions[0].metric, "nacks");
    EXPECT_EQ(nacks.regressions[0].base, 2.0);
    EXPECT_EQ(nacks.regressions[0].cand, 3.0);

    DiffResult cycle = dsm::diffBenchReports(
        parsed(report(100000, 1000.0, 500)),
        parsed(report(100000, 1001.0, 500)));
    EXPECT_FALSE(cycle.ok());
    ASSERT_EQ(cycle.regressions.size(), 1u);
    EXPECT_EQ(cycle.regressions[0].metric, "mean_latency");
}

TEST(BenchDiff, EveryFieldIsComparedNestedOnesToo)
{
    // No per-metric table: a field of any name is compared, nested
    // objects by dotted path; a field added or dropped is an error.
    auto doc = [](std::uint64_t cycles, std::uint64_t get_s,
                  bool extra) {
        BenchReport rep("nested");
        dsm::BenchRow &row = rep.row();
        row.set("impl", "INV FAP").set("avg_cycles", cycles);
        row.setRaw("chain",
                   "{\"GET_S\":" + std::to_string(get_s) + "}");
        if (extra)
            row.set("new_field", std::uint64_t{1});
        return rep.toJson();
    };
    DiffResult same = dsm::diffBenchReports(parsed(doc(7, 3, false)),
                                            parsed(doc(7, 3, false)));
    EXPECT_TRUE(same.ok());
    EXPECT_EQ(same.metrics_compared, 2);

    DiffResult moved = dsm::diffBenchReports(parsed(doc(7, 3, false)),
                                             parsed(doc(8, 4, false)));
    EXPECT_FALSE(moved.ok());
    ASSERT_EQ(moved.regressions.size(), 2u);
    EXPECT_EQ(moved.regressions[0].metric, "avg_cycles");
    EXPECT_EQ(moved.regressions[1].metric, "chain.GET_S");

    DiffResult added = dsm::diffBenchReports(parsed(doc(7, 3, false)),
                                             parsed(doc(7, 3, true)));
    EXPECT_FALSE(added.ok());
    ASSERT_EQ(added.errors.size(), 1u);
    EXPECT_NE(added.errors[0].find("new_field"), std::string::npos);
}

TEST(BenchDiff, RowIdentityMismatchIsAnError)
{
    DiffResult res = dsm::diffBenchReports(
        parsed(report(100000, 1000.0, 500, "INV FAP")),
        parsed(report(100000, 1000.0, 500, "UPD FAP")));
    EXPECT_FALSE(res.ok());
    ASSERT_FALSE(res.errors.empty());
    EXPECT_NE(res.errors[0].find("row identity"), std::string::npos);
    EXPECT_EQ(res.rows_compared, 0);
}

TEST(BenchDiff, BenchNameAndSchemaMismatchAreErrors)
{
    DiffResult name = dsm::diffBenchReports(
        parsed(report(1000, 10.0, 0, "x", "alpha")),
        parsed(report(1000, 10.0, 0, "x", "beta")));
    EXPECT_FALSE(name.ok());
    ASSERT_FALSE(name.errors.empty());
    EXPECT_NE(name.errors[0].find("bench name mismatch"),
              std::string::npos);

    DiffResult schema = dsm::diffBenchReports(
        parsed("{\"schema\":\"other\"}"),
        parsed(report(1000, 10.0, 0)));
    EXPECT_FALSE(schema.ok());
}

TEST(BenchDiff, RenderDiffNamesTheFindings)
{
    DiffResult res = dsm::diffBenchReports(
        parsed(report(100000, 1000.0, 500)),
        parsed(report(90000, 1100.0, 500)));
    std::string text = dsm::renderDiff(res);
    EXPECT_NE(text.find("REGRESSION"), std::string::npos);
    EXPECT_NE(text.find("ops"), std::string::npos);
    EXPECT_NE(text.find("mean_latency"), std::string::npos);
    EXPECT_NE(text.find("2 regression(s)"), std::string::npos);
}

TEST(BenchDiff, DirectoriesMatchSnapshotsByFilename)
{
    namespace fs = std::filesystem;
    fs::path root = fs::path(testing::TempDir()) / "bench_diff_dirs";
    fs::path base = root / "base", cand = root / "cand";
    fs::remove_all(root);
    fs::create_directories(base);
    fs::create_directories(cand);
    auto put = [](const fs::path &p, const std::string &text) {
        std::ofstream(p) << text;
    };

    put(base / "BENCH_alpha.json", report(1000, 10.0, 0, "x", "alpha"));
    put(base / "BENCH_beta.json", report(1000, 10.0, 0, "x", "beta"));
    put(cand / "BENCH_alpha.json", report(1000, 10.0, 0, "x", "alpha"));

    // A baseline bench missing from the candidate is an error.
    DiffResult res = dsm::diffBenchDirs(base.string(), cand.string());
    EXPECT_FALSE(res.ok());
    ASSERT_EQ(res.errors.size(), 1u);
    EXPECT_NE(res.errors[0].find("BENCH_beta.json"), std::string::npos);
    EXPECT_EQ(res.rows_compared, 1);

    // With the counterpart present (but regressed) the directory diff
    // folds the per-file results together; extra candidate files are
    // ignored (a new bench is not a regression).
    put(cand / "BENCH_beta.json", report(500, 10.0, 0, "x", "beta"));
    put(cand / "BENCH_gamma.json", report(1, 1.0, 0, "x", "gamma"));
    res = dsm::diffBenchDirs(base.string(), cand.string());
    EXPECT_TRUE(res.errors.empty());
    ASSERT_EQ(res.regressions.size(), 1u);
    EXPECT_EQ(res.regressions[0].bench, "beta");
    EXPECT_EQ(res.regressions[0].metric, "ops");
    EXPECT_EQ(res.rows_compared, 2);

    // File-level comparison agrees with the directory walk.
    DiffResult one = dsm::diffBenchFiles(
        (base / "BENCH_beta.json").string(),
        (cand / "BENCH_beta.json").string());
    ASSERT_EQ(one.regressions.size(), 1u);
    EXPECT_EQ(one.regressions[0].metric, "ops");

    DiffResult missing = dsm::diffBenchFiles(
        (base / "BENCH_nope.json").string(),
        (cand / "BENCH_beta.json").string());
    EXPECT_FALSE(missing.ok());
}

// ----- written-report provenance (meta.git_sha / wall_ms / host_cores) -----

TEST(BenchReportProvenance, WrittenReportCarriesProvenance)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path(testing::TempDir()) / "bench_prov";
    fs::create_directories(dir);
    setenv("DSM_BENCH_DIR", dir.string().c_str(), 1);
    setenv("DSM_GIT_SHA", "cafe1234", 1);

    BenchReport rep("prov");
    rep.meta("workload", "unit");
    rep.row().set("impl", "x").set("ops", std::uint64_t{1});

    // The in-memory document stays byte-stable (the serial-vs-parallel
    // identity tests compare it): no provenance keys.
    EXPECT_EQ(rep.toJson().find("git_sha"), std::string::npos);
    EXPECT_EQ(rep.toJson().find("wall_ms"), std::string::npos);

    std::string path = rep.write();
    ASSERT_FALSE(path.empty());
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    dsm::JsonValue root = parsed(text);
    EXPECT_EQ(root.str("schema"), "dsm-bench-v1");
    const dsm::JsonValue *meta = root.find("meta");
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->str("workload"), "unit"); // user meta kept first
    EXPECT_EQ(meta->str("git_sha"), "cafe1234");
    EXPECT_GE(meta->num("wall_ms"), 0.0);
    EXPECT_GE(meta->num("host_cores"), 1.0);

    unsetenv("DSM_GIT_SHA");
    unsetenv("DSM_BENCH_DIR");
}

} // anonymous namespace
