/**
 * @file
 * Tests for the key=value spec strings of the fault, open-loop and
 * serving config groups: the canonical summary() of every spec the
 * repository declares (presets, campaign levels, benchmark mixes and
 * test specs) is pinned byte for byte, parse(summary()) round-trips,
 * a value that does not fit its member is an error naming the key, and
 * validate() rejects a NaN probability.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "sim/config.hh"

using namespace dsm;

namespace {

struct Pinned
{
    const char *spec;
    const char *summary;
};

const Pinned kFaultSpecs[] = {
    {"1",
     "seed=0,jitter_prob=0.2,jitter_max=64,resv_drop_prob=0.05,"
     "evict_prob=0.02,nack_prob=0.1,max_extra_nacks=4"},
    {"on",
     "seed=0,jitter_prob=0.2,jitter_max=64,resv_drop_prob=0.05,"
     "evict_prob=0.02,nack_prob=0.1,max_extra_nacks=4"},
    {"default",
     "seed=0,jitter_prob=0.2,jitter_max=64,resv_drop_prob=0.05,"
     "evict_prob=0.02,nack_prob=0.1,max_extra_nacks=4"},
    // bench/chaos_sweep.cc levels; "moderate" is also perfbench's mix.
    {"drop_prob=0.0002,req_timeout=2000",
     "seed=0,jitter_prob=0,jitter_max=0,resv_drop_prob=0,"
     "evict_prob=0,nack_prob=0,max_extra_nacks=4,drop_prob=0.0002,"
     "flaky_links=0,flaky_window=0,flaky_duration=0,"
     "flaky_drop_prob=1,req_timeout=2000,quarantine_k=0,"
     "quarantine_window=0"},
    {"drop_prob=0.001,req_timeout=2000",
     "seed=0,jitter_prob=0,jitter_max=0,resv_drop_prob=0,"
     "evict_prob=0,nack_prob=0,max_extra_nacks=4,drop_prob=0.001,"
     "flaky_links=0,flaky_window=0,flaky_duration=0,"
     "flaky_drop_prob=1,req_timeout=2000,quarantine_k=0,"
     "quarantine_window=0"},
    {"drop_prob=0.001,flaky_links=1,flaky_window=50000,"
     "flaky_duration=50000,flaky_drop_prob=1,req_timeout=2000,"
     "quarantine_k=2,quarantine_window=1000000000",
     "seed=0,jitter_prob=0,jitter_max=0,resv_drop_prob=0,"
     "evict_prob=0,nack_prob=0,max_extra_nacks=4,drop_prob=0.001,"
     "flaky_links=1,flaky_window=50000,flaky_duration=50000,"
     "flaky_drop_prob=1,req_timeout=2000,quarantine_k=2,"
     "quarantine_window=1000000000"},
    {"jitter_prob=0.001,jitter_max=8,drop_prob=0.0002,"
     "reorder_prob=0.0005,reorder_max=16,dup_prob=0.0005,"
     "dup_delay=32,corrupt_prob=0.0002,req_timeout=2000",
     "seed=0,jitter_prob=0.001,jitter_max=8,resv_drop_prob=0,"
     "evict_prob=0,nack_prob=0,max_extra_nacks=4,drop_prob=0.0002,"
     "flaky_links=0,flaky_window=0,flaky_duration=0,"
     "flaky_drop_prob=1,req_timeout=2000,quarantine_k=0,"
     "quarantine_window=0,reorder_prob=0.0005,reorder_max=16,"
     "dup_prob=0.0005,dup_delay=32,corrupt_prob=0.0002"},
    {"jitter_prob=0.002,jitter_max=16,drop_prob=0.0005,"
     "reorder_prob=0.001,reorder_max=32,dup_prob=0.001,dup_delay=64,"
     "corrupt_prob=0.0005,req_timeout=2000",
     "seed=0,jitter_prob=0.002,jitter_max=16,resv_drop_prob=0,"
     "evict_prob=0,nack_prob=0,max_extra_nacks=4,drop_prob=0.0005,"
     "flaky_links=0,flaky_window=0,flaky_duration=0,"
     "flaky_drop_prob=1,req_timeout=2000,quarantine_k=0,"
     "quarantine_window=0,reorder_prob=0.001,reorder_max=32,"
     "dup_prob=0.001,dup_delay=64,corrupt_prob=0.0005"},
    {"jitter_prob=0.005,jitter_max=32,drop_prob=0.001,flaky_links=1,"
     "flaky_window=50000,flaky_duration=50000,flaky_drop_prob=1,"
     "quarantine_k=2,quarantine_window=1000000000,reorder_prob=0.002,"
     "reorder_max=64,dup_prob=0.002,dup_delay=128,corrupt_prob=0.001,"
     "resv_max_age=200000,req_timeout=2000",
     "seed=0,jitter_prob=0.005,jitter_max=32,resv_drop_prob=0,"
     "evict_prob=0,nack_prob=0,max_extra_nacks=4,drop_prob=0.001,"
     "flaky_links=1,flaky_window=50000,flaky_duration=50000,"
     "flaky_drop_prob=1,req_timeout=2000,quarantine_k=2,"
     "quarantine_window=1000000000,reorder_prob=0.002,reorder_max=64,"
     "dup_prob=0.002,dup_delay=128,corrupt_prob=0.001,"
     "resv_max_age=200000"},
    // tests/test_campaign.cc and tests/test_fault_injection.cc.
    {"jitter_prob=0.1,jitter_max=4",
     "seed=0,jitter_prob=0.1,jitter_max=4,resv_drop_prob=0,"
     "evict_prob=0,nack_prob=0,max_extra_nacks=4"},
    {"jitter_prob=0.5,jitter_max=8",
     "seed=0,jitter_prob=0.5,jitter_max=8,resv_drop_prob=0,"
     "evict_prob=0,nack_prob=0,max_extra_nacks=4"},
    {"nack_prob=0.5,jitter_max=16,seed=7,max_extra_nacks=2",
     "seed=7,jitter_prob=0,jitter_max=16,resv_drop_prob=0,"
     "evict_prob=0,nack_prob=0.5,max_extra_nacks=2"},
    {"nack_prob=1.5",
     "seed=0,jitter_prob=0,jitter_max=0,resv_drop_prob=0,"
     "evict_prob=0,nack_prob=1.5,max_extra_nacks=4"},
    {"nack_prob=1.0,max_extra_nacks=0",
     "seed=0,jitter_prob=0,jitter_max=0,resv_drop_prob=0,"
     "evict_prob=0,nack_prob=1,max_extra_nacks=0"},
    // An armed reservation age bound alone.
    {"resv_max_age=5",
     "seed=0,jitter_prob=0,jitter_max=0,resv_drop_prob=0,"
     "evict_prob=0,nack_prob=0,max_extra_nacks=4,resv_max_age=5"},
};

const Pinned kOpenLoopSpecs[] = {
    {"1",
     "rate=0.001,burst=1,queue_cap=64,slo_cycles=0,ops_per_proc=256"},
    {"on",
     "rate=0.001,burst=1,queue_cap=64,slo_cycles=0,ops_per_proc=256"},
    {"default",
     "rate=0.001,burst=1,queue_cap=64,slo_cycles=0,ops_per_proc=256"},
    // bench/openloop_sweep.cc loads.
    {"rate=0.0001,slo_cycles=2000,ops_per_proc=256",
     "rate=0.0001,burst=1,queue_cap=64,slo_cycles=2000,"
     "ops_per_proc=256"},
    {"rate=0.0003,slo_cycles=2000,ops_per_proc=256",
     "rate=0.0003,burst=1,queue_cap=64,slo_cycles=2000,"
     "ops_per_proc=256"},
    {"rate=0.001,slo_cycles=2000,ops_per_proc=256",
     "rate=0.001,burst=1,queue_cap=64,slo_cycles=2000,"
     "ops_per_proc=256"},
    {"rate=0.003,slo_cycles=2000,ops_per_proc=256",
     "rate=0.003,burst=1,queue_cap=64,slo_cycles=2000,"
     "ops_per_proc=256"},
    {"rate=0.0003,burst=8,slo_cycles=2000,ops_per_proc=256",
     "rate=0.0003,burst=8,queue_cap=64,slo_cycles=2000,"
     "ops_per_proc=256"},
    // bench/overload_sweep.cc loads.
    {"rate=0.001,slo_cycles=2000,ops_per_proc=192",
     "rate=0.001,burst=1,queue_cap=64,slo_cycles=2000,"
     "ops_per_proc=192"},
    {"rate=0.002,slo_cycles=2000,ops_per_proc=192",
     "rate=0.002,burst=1,queue_cap=64,slo_cycles=2000,"
     "ops_per_proc=192"},
    {"rate=0.004,slo_cycles=2000,ops_per_proc=192",
     "rate=0.004,burst=1,queue_cap=64,slo_cycles=2000,"
     "ops_per_proc=192"},
};

const Pinned kServeSpecs[] = {
    {"1",
     "combining=1,combine_limit=8,backpressure=1,credit_threshold=8,"
     "priority=1,age_limit=2000,nack_backoff=1,backoff_cap=10"},
    {"on",
     "combining=1,combine_limit=8,backpressure=1,credit_threshold=8,"
     "priority=1,age_limit=2000,nack_backoff=1,backoff_cap=10"},
    {"default",
     "combining=1,combine_limit=8,backpressure=1,credit_threshold=8,"
     "priority=1,age_limit=2000,nack_backoff=1,backoff_cap=10"},
    // bench/overload_sweep.cc modes.
    {"combining=1,backpressure=0,priority=0,nack_backoff=0",
     "combining=1,combine_limit=8,backpressure=0,credit_threshold=8,"
     "priority=0,age_limit=2000,nack_backoff=0,backoff_cap=10"},
    {"combining=0,backpressure=1,priority=0,nack_backoff=0",
     "combining=0,combine_limit=8,backpressure=1,credit_threshold=8,"
     "priority=0,age_limit=2000,nack_backoff=0,backoff_cap=10"},
    {"combining=0,backpressure=0,priority=1,nack_backoff=0",
     "combining=0,combine_limit=8,backpressure=0,credit_threshold=8,"
     "priority=1,age_limit=2000,nack_backoff=0,backoff_cap=10"},
    // The adaptive threshold.
    {"credit_threshold=auto",
     "combining=1,combine_limit=8,backpressure=1,"
     "credit_threshold=auto,priority=1,age_limit=2000,nack_backoff=1,"
     "backoff_cap=10"},
};

/** Each spec parses and prints its pinned summary. */
template <typename T, std::size_t N>
void
expectPinned(const Pinned (&table)[N])
{
    for (const Pinned &p : table) {
        SCOPED_TRACE(p.spec);
        T cfg;
        ASSERT_EQ(cfg.parse(p.spec), "");
        EXPECT_TRUE(cfg.enabled);
        EXPECT_EQ(cfg.summary(), p.summary);
    }
}

/** parse(summary()) succeeds and prints the same summary again. */
template <typename T, std::size_t N>
void
expectRoundTrip(const Pinned (&table)[N])
{
    for (const Pinned &p : table) {
        SCOPED_TRACE(p.spec);
        T cfg;
        ASSERT_EQ(cfg.parse(p.spec), "");
        T again;
        ASSERT_EQ(again.parse(cfg.summary()), "");
        EXPECT_TRUE(again.enabled);
        EXPECT_EQ(again.summary(), cfg.summary());
    }
}

/** The error parse() gives for @p spec. */
template <typename T>
std::string
parseError(const char *spec)
{
    T cfg;
    return cfg.parse(spec);
}

} // namespace

TEST(SpecSummary, FaultSpecsArePinned)
{
    expectPinned<FaultConfig>(kFaultSpecs);
}

TEST(SpecSummary, OpenLoopSpecsArePinned)
{
    expectPinned<OpenLoopConfig>(kOpenLoopSpecs);
}

TEST(SpecSummary, ServeSpecsArePinned)
{
    expectPinned<ServeConfig>(kServeSpecs);
}

TEST(SpecSummary, FaultSummaryRoundTrips)
{
    expectRoundTrip<FaultConfig>(kFaultSpecs);
}

TEST(SpecSummary, OpenLoopSummaryRoundTrips)
{
    expectRoundTrip<OpenLoopConfig>(kOpenLoopSpecs);
}

TEST(SpecSummary, ServeSummaryRoundTrips)
{
    expectRoundTrip<ServeConfig>(kServeSpecs);
}

TEST(SpecParse, RejectsValuesThatDoNotFitTheirMember)
{
    struct Bad
    {
        std::string (*parse)(const char *);
        const char *spec;
        const char *key;
    };
    const Bad bad[] = {
        {parseError<FaultConfig>, "max_extra_nacks=2.7", "max_extra_nacks"},
        {parseError<FaultConfig>, "flaky_links=1e10", "flaky_links"},
        {parseError<FaultConfig>, "quarantine_k=-0.5", "quarantine_k"},
        {parseError<FaultConfig>, "jitter_max=-1", "jitter_max"},
        {parseError<FaultConfig>, "jitter_max=1e30", "jitter_max"},
        {parseError<FaultConfig>, "seed=1e3", "seed"},
        {parseError<FaultConfig>, "jitter_prob=0x10", "jitter_prob"},
        {parseError<OpenLoopConfig>, "slo_cycles=-5", "slo_cycles"},
        {parseError<OpenLoopConfig>, "burst=2.5", "burst"},
        {parseError<OpenLoopConfig>, "ops_per_proc=1e12", "ops_per_proc"},
        {parseError<ServeConfig>, "age_limit=-1", "age_limit"},
        {parseError<ServeConfig>, "combining=0.5", "combining"},
    };
    for (const Bad &b : bad) {
        std::string err = b.parse(b.spec);
        EXPECT_NE(err.find(std::string("'") + b.key + "'"),
                  std::string::npos)
            << b.spec << " gave: '" << err << "'";
    }
}

TEST(SpecParse, SixtyFourBitSeedsParseExactly)
{
    FaultConfig fc;
    ASSERT_EQ(fc.parse("seed=9007199254740993"), "");
    EXPECT_EQ(fc.seed, 9007199254740993ull);
    ASSERT_EQ(fc.parse("seed=18446744073709551615"), "");
    EXPECT_EQ(fc.seed, 18446744073709551615ull);
}

TEST(SpecParse, ZeroIsOff)
{
    FaultConfig fc;
    ASSERT_EQ(fc.parse("0"), "");
    EXPECT_FALSE(fc.enabled);
    ServeConfig sv;
    ASSERT_EQ(sv.parse("0"), "");
    EXPECT_FALSE(sv.enabled);
}

TEST(SpecValidate, NanProbabilityIsRejected)
{
    Config cfg;
    ASSERT_EQ(cfg.faults.parse("nack_prob=nan"), "");
    EXPECT_EQ(cfg.validate(), "faults.nack_prob must be in [0, 1], got nan");

    Config direct;
    direct.faults.nack_prob = std::numeric_limits<double>::quiet_NaN();
    EXPECT_NE(direct.validate(), "");
}

TEST(SpecEnv, FlagIsSetNonEmptyAndNotZero)
{
    const char *name = "DSM_SPEC_TEST_FLAG";
    ::unsetenv(name);
    EXPECT_FALSE(envFlag(name));
    for (const char *off : {"", "0"}) {
        ::setenv(name, off, 1);
        EXPECT_FALSE(envFlag(name)) << "'" << off << "'";
    }
    for (const char *on : {"1", "00", "yes"}) {
        ::setenv(name, on, 1);
        EXPECT_TRUE(envFlag(name)) << "'" << on << "'";
    }
    ::unsetenv(name);
}

TEST(SpecDeath, BadFaultsEnvIsFatalAndNamesTheKey)
{
    ::setenv("DSM_FAULTS", "max_extra_nacks=2.7", 1);
    EXPECT_EXIT(faultConfigFromEnv(), testing::ExitedWithCode(1),
                "DSM_FAULTS: .*'max_extra_nacks'");
    ::unsetenv("DSM_FAULTS");
}
