/**
 * @file
 * Tests for the campaign harness (exp/campaign.hh): a failing point
 * writes its indexed dump and the verbatim repro line, an armed axis
 * that never fires fails the campaign while an unarmed one does not
 * (and a 64-bit seed reaches the report), and malformed --seeds values
 * are rejected.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "cpu/system.hh"
#include "exp/campaign.hh"
#include "workloads/counter_apps.hh"

using namespace dsm;

namespace {

namespace fs = std::filesystem;

const char *const kCalm = "jitter_prob=0.1,jitter_max=4";
const char *const kRough = "jitter_prob=0.5,jitter_max=8";

struct Outcome
{
    int rc;
    std::string out;    ///< stdout of the run
    std::string report; ///< the in-memory BENCH document
};

/**
 * A 2-point campaign on a p=4 machine: INV FAP under a calm and a
 * rough jitter level, each row carrying a "never" field that stays 0.
 * With @p fail_rough the rough point reports a wrong result.
 */
Outcome
runTiny(const fs::path &dir, bool fail_rough, Armed never_armed)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    ::setenv("DSM_BENCH_DIR", dir.c_str(), 1);
    const char *argv[] = {"tiny_campaign", "--seed", "4294967297"};
    Campaign c("tiny_campaign", 3, const_cast<char **>(argv));
    Config &base = c.experiment().baseConfig();
    base.machine.num_procs = 4;
    base.machine.mesh_x = 2;
    base.machine.mesh_y = 2;
    c.experiment().quiet(true).table(false);
    c.impls({{"INV FAP", Primitive::FAP, SyncConfig{}}})
        .axis(Knob::FAULTS, Place::COL, {{"calm", kCalm}, {"rough", kRough}})
        .total("never", "never-fired events", std::move(never_armed))
        .workload([fail_rough](System &sys, const ImplCase &impl,
                               const Gate &gate) {
            CounterAppConfig app;
            app.kind = CounterKind::LOCK_FREE;
            app.prim = impl.prim;
            app.contention = 4;
            app.phases = 2;
            CounterAppResult r = runCounterApp(sys, app);
            bool rough = sys.cfg().faults.msg_jitter_prob > 0.3;
            bool ok = gate(r.completed, r.correct && !(fail_rough && rough));
            PointResult res;
            res.fields.set("ok", static_cast<std::uint64_t>(ok))
                .set("never", std::uint64_t{0});
            return res;
        });
    testing::internal::CaptureStdout();
    int rc = c.run();
    std::string out = testing::internal::GetCapturedStdout();
    ::unsetenv("DSM_BENCH_DIR");
    return Outcome{rc, out, c.experiment().reportJson()};
}

} // namespace

TEST(Campaign, FailingPointWritesIndexedDumpAndVerbatimRepro)
{
    fs::path dir = fs::path(testing::TempDir()) / "campaign_fail";
    Outcome o = runTiny(dir, true, {});
    EXPECT_EQ(o.rc, 1) << o.out;

    std::string repro = std::string("reproduce with: DSM_FAULTS='") +
                        kRough + "' tiny_campaign --seed 4294967297";
    EXPECT_NE(o.out.find(repro), std::string::npos) << o.out;
    EXPECT_NE(o.out.find("1 failure(s)"), std::string::npos) << o.out;

    EXPECT_FALSE(fs::exists(dir / "WATCHDOG_tiny_campaign_0_INV_FAP_calm.txt"));
    fs::path dump = dir / "WATCHDOG_tiny_campaign_1_INV_FAP_rough.txt";
    ASSERT_TRUE(fs::exists(dump));
    std::ifstream in(dump);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find(repro), std::string::npos) << text;
    EXPECT_NE(text.find("final counter value is wrong"), std::string::npos)
        << text;
}

TEST(Campaign, ArmedAxisMustFire)
{
    fs::path dir = fs::path(testing::TempDir()) / "campaign_armed";
    Outcome armed = runTiny(dir, false, [](const Config &cfg) {
        return cfg.faults.msg_jitter_prob > 0;
    });
    EXPECT_EQ(armed.rc, 1) << armed.out;
    EXPECT_NE(armed.out.find("never-fired events stayed 0"),
              std::string::npos)
        << armed.out;

    Outcome unarmed = runTiny(dir, false, [](const Config &cfg) {
        return cfg.faults.nack_prob > 0;
    });
    EXPECT_EQ(unarmed.rc, 0) << unarmed.out;
    EXPECT_NE(unarmed.out.find("0 never-fired events, 0 failure(s)"),
              std::string::npos)
        << unarmed.out;
    // The base seed past 2^32 reaches the report whole.
    EXPECT_NE(unarmed.report.find("\"seed\":4294967297"), std::string::npos)
        << unarmed.report;
}

TEST(CampaignDeath, SeedsFlagRejectsZeroAndNonNumbers)
{
    for (const char *bad : {"0", "x", "-1", "+3", " 3", "2.5", "1e3",
                            "99999999999"}) {
        const char *argv[] = {"camp", "--seeds", bad};
        EXPECT_EXIT(
            {
                Campaign c("camp", 3, const_cast<char **>(argv));
                c.seeds(8);
            },
            testing::ExitedWithCode(1),
            "--seeds expects a positive integer");
    }
}
