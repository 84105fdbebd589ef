/** @file Unit tests for the histogram. */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "stats/histogram.hh"
#include "stats/stat_set.hh"

using namespace dsm;

TEST(Histogram, EmptyDefaults)
{
    Histogram h;
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.fraction(3), 0.0);
}

TEST(Histogram, MeanAndMax)
{
    Histogram h;
    h.add(1);
    h.add(2);
    h.add(3);
    h.add(10);
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
    EXPECT_EQ(h.max(), 10u);
}

TEST(Histogram, WeightedAdd)
{
    Histogram h;
    h.add(2, 5);
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_EQ(h.count(2), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Histogram, Fractions)
{
    Histogram h;
    h.add(1, 3);
    h.add(2, 1);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.75);
    EXPECT_DOUBLE_EQ(h.fraction(2), 0.25);
    EXPECT_DOUBLE_EQ(h.fraction(9), 0.0);
}

TEST(Histogram, Percentiles)
{
    Histogram h;
    for (int v = 1; v <= 100; ++v)
        h.add(static_cast<std::uint64_t>(v));
    EXPECT_EQ(h.percentile(0.5), 50u);
    EXPECT_EQ(h.percentile(0.99), 99u);
    EXPECT_EQ(h.percentile(1.0), 100u);
}

TEST(Histogram, NearestRankSingleSample)
{
    // Nearest-rank: any nonzero quantile of one sample is that sample.
    Histogram h;
    h.add(5);
    EXPECT_EQ(h.percentile(0.01), 5u);
    EXPECT_EQ(h.percentile(0.5), 5u);
    EXPECT_EQ(h.percentile(1.0), 5u);
}

TEST(Histogram, NearestRankTwoSamples)
{
    // rank = ceil(q * n): q=0.5 of two samples is the first, anything
    // above lands on the second.
    Histogram h;
    h.add(1);
    h.add(100);
    EXPECT_EQ(h.percentile(0.5), 1u);
    EXPECT_EQ(h.percentile(0.75), 100u);
    EXPECT_EQ(h.percentile(0.95), 100u);
    EXPECT_EQ(h.percentile(1.0), 100u);
}

TEST(Histogram, PercentileOneIsMax)
{
    Histogram h;
    h.add(3);
    h.add(7);
    h.add(9);
    EXPECT_EQ(h.percentile(1.0), h.max());
}

TEST(Histogram, ClearResets)
{
    Histogram h;
    h.add(7);
    h.clear();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.count(7), 0u);
    EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, SummaryMentionsCountAndMean)
{
    Histogram h;
    h.add(4);
    std::string s = h.summary();
    EXPECT_NE(s.find("n=1"), std::string::npos);
    EXPECT_NE(s.find("mean=4.00"), std::string::npos);
}

namespace {

constexpr double REPORT_QS[] = {0.50, 0.95, 0.99, 0.999};

/** percentiles(), as {p50, p95, p99, p999}. */
template <typename Stat>
std::vector<std::uint64_t>
oneWalk(const Stat &s)
{
    Histogram::Percentiles p = s.percentiles();
    return {p.p50, p.p95, p.p99, p.p999};
}

/** percentile(q) for each report quantile, one walk each. */
template <typename Stat>
std::vector<std::uint64_t>
perQuantile(const Stat &s)
{
    std::vector<std::uint64_t> v;
    for (double q : REPORT_QS)
        v.push_back(s.percentile(q));
    return v;
}

} // namespace

TEST(Histogram, OneWalkPercentilesMatchPercentile)
{
    Histogram empty;
    EXPECT_EQ(oneWalk(empty), perQuantile(empty));

    Histogram single;
    single.add(7);
    EXPECT_EQ(oneWalk(single), perQuantile(single));

    // n = 1000: the p999 target rank is exactly 999.
    Histogram thousand;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        thousand.add(v);
    EXPECT_EQ(oneWalk(thousand), perQuantile(thousand));
    EXPECT_EQ(thousand.percentiles().p999, 999u);

    std::mt19937_64 rng(17);
    for (int trial = 0; trial < 200; ++trial) {
        Histogram h;
        int samples = 1 + static_cast<int>(rng() % 3000);
        std::uint64_t span = 1 + rng() % 500;
        for (int i = 0; i < samples; ++i)
            h.add(rng() % span, 1 + rng() % 3);
        EXPECT_EQ(oneWalk(h), perQuantile(h)) << "trial " << trial;
    }
}

TEST(Histogram, LatencyOneWalkPercentilesMatchPercentile)
{
    LatencyStat empty;
    EXPECT_EQ(oneWalk(empty), perQuantile(empty));

    LatencyStat single;
    single.sample(42);
    EXPECT_EQ(oneWalk(single), perQuantile(single));

    LatencyStat thousand;
    for (Tick t = 1; t <= 1000; ++t)
        thousand.sample(t);
    EXPECT_EQ(oneWalk(thousand), perQuantile(thousand));

    std::mt19937_64 rng(23);
    for (int trial = 0; trial < 200; ++trial) {
        LatencyStat l;
        int samples = 1 + static_cast<int>(rng() % 3000);
        Tick span = 1 + rng() % 5000;
        for (int i = 0; i < samples; ++i)
            l.sample(rng() % span);
        EXPECT_EQ(oneWalk(l), perQuantile(l)) << "trial " << trial;
    }
}

TEST(Histogram, MergeEqualsAddLoop)
{
    // merge() must leave exactly the fields that add(v, n) over each
    // nonzero bucket of the source leaves, bucket array size included.
    // Zero-count adds give a source trailing empty buckets.
    std::mt19937_64 rng(29);
    auto fill = [&rng](Histogram &h) {
        int adds = static_cast<int>(rng() % 40);
        std::uint64_t span = 1 + rng() % 300;
        for (int i = 0; i < adds; ++i)
            h.add(rng() % span, rng() % 8 == 0 ? 0 : 1 + rng() % 5);
    };
    for (int trial = 0; trial < 500; ++trial) {
        Histogram dst, src;
        fill(dst);
        fill(src);
        Histogram want = dst;
        for (std::uint64_t v = 0; v < src.buckets().size(); ++v)
            if (src.buckets()[v] != 0)
                want.add(v, src.buckets()[v]);
        dst.merge(src);
        EXPECT_EQ(dst.buckets(), want.buckets()) << "trial " << trial;
        EXPECT_EQ(dst.samples(), want.samples()) << "trial " << trial;
        EXPECT_EQ(dst.sum(), want.sum()) << "trial " << trial;
        EXPECT_EQ(dst.max(), want.max()) << "trial " << trial;
    }
}
