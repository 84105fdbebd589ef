/**
 * @file
 * Tests for JsonWriter's number and key rendering, the stats registry's
 * snapshot/diff and JSON rendering, the LatencyStat percentiles, and the
 * dsm-bench-v1 BenchReport schema.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>

#include "helpers.hh"
#include "stats/bench_report.hh"
#include "stats/registry.hh"

namespace {

using namespace dsmtest;

/** JsonWriter::value(@p v) as a document of its own. */
template <typename T>
std::string
written(T v)
{
    JsonWriter w;
    w.value(v);
    return w.str();
}

/** snprintf(@p fmt, @p v): the rendering JsonWriter must reproduce. */
template <typename T>
std::string
printed(const char *fmt, T v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, v);
    return buf;
}

TEST(JsonWriterUnit, NumbersMatchPrintf)
{
    for (double d : {0.0, -0.0, 1.0 / 3.0, 1e-5, 12345678901.0, 1e21, 0.5,
                     -2.75, 1e-300, 4.9e-324, 1.7976931348623157e308,
                     123456.789, 1e10, 9999999999.5})
        EXPECT_EQ(written(d), printed("%.10g", d)) << d;
    // JSON has no NaN or infinities: they clamp to 0.
    EXPECT_EQ(written(std::nan("")), "0");
    EXPECT_EQ(written(std::numeric_limits<double>::infinity()), "0");
    EXPECT_EQ(written(-std::numeric_limits<double>::infinity()), "0");

    const std::uint64_t umax = std::numeric_limits<std::uint64_t>::max();
    const std::int64_t imin = std::numeric_limits<std::int64_t>::min();
    EXPECT_EQ(written(umax), printed("%llu", (unsigned long long)umax));
    EXPECT_EQ(written(imin), printed("%lld", (long long)imin));
    EXPECT_EQ(written(std::uint64_t{0}), "0");
    EXPECT_EQ(written(-1), "-1");
    EXPECT_EQ(written(4000000000u), "4000000000");

    std::mt19937_64 rng(11);
    for (int i = 0; i < 100000; ++i) {
        std::uint64_t bits = rng();
        double d;
        std::memcpy(&d, &bits, sizeof d);
        if (std::isfinite(d)) {
            ASSERT_EQ(written(d), printed("%.10g", d)) << bits;
        }
        double ratio = static_cast<double>(rng() % 1000000) /
                       static_cast<double>(1 + rng() % 1000);
        ASSERT_EQ(written(ratio), printed("%.10g", ratio)) << ratio;
        std::uint64_t u = rng() >> (rng() % 64);
        ASSERT_EQ(written(u), printed("%llu", (unsigned long long)u));
        std::int64_t s = static_cast<std::int64_t>(rng()) >> (rng() % 64);
        ASSERT_EQ(written(s), printed("%lld", (long long)s));
    }
}

TEST(JsonWriterUnit, KeysAreEscaped)
{
    JsonWriter w;
    w.beginObject();
    w.kv("plain", 1);
    w.kv(std::string("q\"uote\\\n"), 2);
    w.endObject();
    EXPECT_EQ(w.str(), "{\"plain\":1,\"q\\\"uote\\\\\\n\":2}");
}

TEST(StatsRegistryUnit, SnapshotAndDiff)
{
    struct Bound
    {
        std::uint64_t raw = 5;
        Histogram hist;
        LatencyStat lat;
    } bound;
    std::uint64_t &raw = bound.raw;
    Histogram &hist = bound.hist;
    LatencyStat &lat = bound.lat;
    hist.add(3);
    hist.add(5);
    lat.sample(10);

    StatSchema schema({
        {.path = "a.count",
         .counter = [](const void *obj, int, int) {
             return static_cast<const Bound *>(obj)->raw;
         }},
        {.path = "b.derived",
         .counter = [](const void *obj, int, int) {
             return static_cast<const Bound *>(obj)->raw * 2;
         }},
        {.path = "a.hist",
         .hist = [](const void *obj, int, int) {
             return &static_cast<const Bound *>(obj)->hist;
         }},
        {.path = "a.lat",
         .lat = [](const void *obj, int, int) {
             return &static_cast<const Bound *>(obj)->lat;
         }},
    });
    StatsRegistry reg(schema, &bound);
    EXPECT_EQ(reg.size(), 4u);

    StatsRegistry::Snapshot s0 = reg.snapshot();
    EXPECT_EQ(s0.at("a.count"), 5u);
    EXPECT_EQ(s0.at("b.derived"), 10u);
    EXPECT_EQ(s0.at("a.hist.samples"), 2u);
    EXPECT_EQ(s0.at("a.hist.sum"), 8u);
    EXPECT_EQ(s0.at("a.lat.count"), 1u);
    EXPECT_EQ(s0.at("a.lat.sum"), 10u);

    raw = 9;
    hist.add(2);
    lat.sample(4);

    StatsRegistry::Snapshot s1 = reg.snapshot();
    StatsRegistry::Snapshot d = StatsRegistry::diff(s1, s0);
    EXPECT_EQ(d.at("a.count"), 4u);
    EXPECT_EQ(d.at("b.derived"), 8u);
    EXPECT_EQ(d.at("a.hist.samples"), 1u);
    EXPECT_EQ(d.at("a.hist.sum"), 2u);
    EXPECT_EQ(d.at("a.lat.count"), 1u);
    EXPECT_EQ(d.at("a.lat.sum"), 4u);

    // Keys missing from `before` count as zero.
    s0.erase("a.count");
    d = StatsRegistry::diff(s1, s0);
    EXPECT_EQ(d.at("a.count"), 9u);
}

TEST(StatsRegistryUnit, NestedJsonFromDottedPaths)
{
    const std::uint64_t values[] = {1, 2, 3, 4};
    auto nth = [](const void *obj, int, int a) {
        return static_cast<const std::uint64_t *>(obj)[a];
    };
    StatSchema schema({
        {.path = "a.b", .counter = nth, .arg = 0},
        {.path = "a.c.d", .counter = nth, .arg = 1},
        {.path = "a.c.e", .counter = nth, .arg = 2},
        {.path = "z", .counter = nth, .arg = 3},
    });
    StatsRegistry reg(schema, values);

    JsonValue root;
    ASSERT_TRUE(parseJsonOrFail(reg.toJson(), &root));
    ASSERT_TRUE(root.isObject());
    const JsonValue *a = root.find("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->num("b"), 1.0);
    const JsonValue *c = a->find("c");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->num("d"), 2.0);
    EXPECT_EQ(c->num("e"), 3.0);
    EXPECT_EQ(root.num("z"), 4.0);
}

TEST(StatsRegistryUnit, RendersInFullPathOrder)
{
    // Global rows on both sides of the per-node block, and node counts
    // with one, two and three digits: members must come out in the
    // sorted order of their full paths ("node1." < "node10." because
    // '.' sorts before digits).
    auto zero = [](const void *, int, int) { return std::uint64_t{0}; };
    auto perNode = [](const void *, int n, int a) {
        return static_cast<std::uint64_t>(10 * n + a);
    };
    StatSchema schema({{.path = "z", .counter = zero},
                       {.path = "net.a", .counter = zero},
                       {.path = "a.b", .counter = zero},
                       {.path = "openloop.x", .counter = zero}},
                      {{.path = "p.y", .counter = perNode, .arg = 1},
                       {.path = "p.x", .counter = perNode, .arg = 0}});
    for (int nodes : {0, 1, 10, 11, 23, 64, 101}) {
        SCOPED_TRACE(nodes);
        StatsRegistry reg(schema, nullptr, nodes);
        EXPECT_EQ(reg.size(), 4u + 2u * static_cast<std::size_t>(nodes));

        std::vector<std::string> want = {"a", "net", "openloop", "z"};
        for (int n = 0; n < nodes; ++n)
            want.push_back("node" + std::to_string(n));
        std::sort(want.begin(), want.end());

        JsonValue root;
        ASSERT_TRUE(parseJsonOrFail(reg.toJson(), &root));
        std::vector<std::string> got;
        for (const auto &[key, value] : root.object)
            got.push_back(key);
        EXPECT_EQ(got, want);
        for (int n = 0; n < nodes; ++n) {
            const JsonValue *node = root.find("node" + std::to_string(n));
            ASSERT_NE(node, nullptr);
            const JsonValue *p = node->find("p");
            ASSERT_NE(p, nullptr);
            ASSERT_EQ(p->object.size(), 2u);
            EXPECT_EQ(p->object[0].first, "x");
            EXPECT_EQ(p->num("x"), 10.0 * n);
            EXPECT_EQ(p->num("y"), 10.0 * n + 1);
        }
    }
}

TEST(LatencyStatUnit, PercentilesBracketTheDistribution)
{
    LatencyStat lat;
    for (Tick t = 1; t <= 1000; ++t)
        lat.sample(t);

    EXPECT_EQ(lat.count, 1000u);
    EXPECT_DOUBLE_EQ(lat.mean(), 500.5);
    EXPECT_EQ(lat.max, 1000u);

    // Percentiles come from 8-cycle buckets: exact to within one
    // bucket, never above the true max.
    EXPECT_NEAR(static_cast<double>(lat.p50()), 500.0, 8.0);
    EXPECT_NEAR(static_cast<double>(lat.p95()), 950.0, 8.0);
    EXPECT_NEAR(static_cast<double>(lat.p99()), 990.0, 8.0);
    EXPECT_LE(lat.p50(), lat.p95());
    EXPECT_LE(lat.p95(), lat.p99());
    EXPECT_LE(lat.p99(), lat.max);

    // A single-sample stat reports that sample everywhere.
    LatencyStat single;
    single.sample(42);
    EXPECT_EQ(single.p50(), 42u);
    EXPECT_EQ(single.p99(), 42u);
}

TEST(StatsJson, SystemRegistryJsonParses)
{
    System sys(smallConfig(SyncPolicy::INV, 4));
    Addr a = sys.allocSyncAt(3);
    runOp(sys, 0, AtomicOp::STORE, a, 7);

    JsonValue root;
    ASSERT_TRUE(parseJsonOrFail(sys.statsJson(), &root));

    const JsonValue *net = root.find("net");
    ASSERT_NE(net, nullptr);
    EXPECT_GT(net->num("messages"), 0.0);
    EXPECT_GT(net->num("flits"), 0.0);

    const JsonValue *sim = root.find("sim");
    ASSERT_NE(sim, nullptr);
    EXPECT_GT(sim->num("ticks"), 0.0);

    // Every node contributes a full subtree.
    for (int n = 0; n < 4; ++n) {
        const JsonValue *node = root.find("node" + std::to_string(n));
        ASSERT_NE(node, nullptr) << "node" << n;
        ASSERT_TRUE(node->has("proto"));
        ASSERT_TRUE(node->has("cache"));
        ASSERT_TRUE(node->has("mem"));
        const JsonValue *proto = node->find("proto");
        ASSERT_TRUE(proto->has("nacks"));
        ASSERT_TRUE(proto->has("chain_length"));
    }
}

TEST(StatsJson, ChainCountsMatchTable1ViaJson)
{
    // The Table 1 single-store experiments, read back through the
    // registry JSON instead of the C++ stats object.
    auto chainFromJson = [](System &sys) {
        JsonValue root;
        if (!parseJsonOrFail(sys.statsJson(), &root))
            return -1.0;
        double max_chain = 0;
        for (const auto &[key, node] : root.object) {
            if (key.rfind("node", 0) != 0)
                continue;
            const JsonValue *proto = node.find("proto");
            if (proto == nullptr)
                continue;
            const JsonValue *chain = proto->find("chain_length");
            if (chain != nullptr)
                max_chain = std::max(max_chain, chain->num("max", 0.0));
        }
        return max_chain;
    };

    {
        // UNC store: request + reply = 2 serialized messages.
        System sys(smallConfig(SyncPolicy::UNC, 4));
        Addr a = sys.allocSyncAt(3);
        runOp(sys, 0, AtomicOp::STORE, a, 1);
        EXPECT_EQ(chainFromJson(sys), 2.0);
        EXPECT_EQ(sys.stats().chain_length.max(), 2u);
    }
    {
        // INV store to a line held exclusive by a third node: 4.
        System sys(smallConfig(SyncPolicy::INV, 4));
        Addr a = sys.allocSyncAt(3);
        runOp(sys, 1, AtomicOp::STORE, a, 1); // node 1 takes ownership
        sys.clearStats();
        runOp(sys, 0, AtomicOp::STORE, a, 2);
        EXPECT_EQ(chainFromJson(sys), 4.0);
        EXPECT_EQ(sys.stats().chain_length.max(), 4u);
    }
}

TEST(StatsJson, ClearStatsResetsProtocolButNotMesh)
{
    System sys(smallConfig(SyncPolicy::INV, 4));
    Addr a = sys.allocSyncAt(3);
    runOp(sys, 0, AtomicOp::STORE, a, 7);

    StatsRegistry::Snapshot before = sys.registry().snapshot();
    ASSERT_GT(before.at("net.messages"), 0u);
    ASSERT_GT(before.at("node0.proto.ops.store.count"), 0u);

    sys.clearStats();
    StatsRegistry::Snapshot after = sys.registry().snapshot();
    EXPECT_EQ(after.at("node0.proto.ops.store.count"), 0u);
    EXPECT_EQ(after.at("net.messages"), before.at("net.messages"));
}

TEST(BenchReportTest, SchemaAndMetricsKeys)
{
    System sys(smallConfig(SyncPolicy::INV, 4));
    Addr a = sys.allocSyncAt(3);
    runOp(sys, 0, AtomicOp::FAA, a, 1);
    RunMetrics m = collectRunMetrics(sys);
    EXPECT_EQ(m.ops, 1u);
    EXPECT_GT(m.messages, 0u);
    EXPECT_GT(m.mean_latency, 0.0);

    BenchReport rep("unittest");
    rep.meta("procs", 4);
    rep.meta("label", "schema check");
    rep.row().set("impl", "INV FAA").set("point", "c=1").metrics(m);
    rep.row().set("impl", "INV FAA").set("point", "c=2").metrics(m);
    ASSERT_EQ(rep.numRows(), 2u);

    JsonValue root;
    ASSERT_TRUE(parseJsonOrFail(rep.toJson(), &root));
    EXPECT_EQ(root.str("schema"), "dsm-bench-v1");
    EXPECT_EQ(root.str("bench"), "unittest");

    const JsonValue *meta = root.find("meta");
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->num("procs"), 4.0);
    EXPECT_EQ(meta->str("label"), "schema check");

    const JsonValue *results = root.find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_TRUE(results->isArray());
    ASSERT_EQ(results->array.size(), 2u);
    const JsonValue &row = results->array[0];
    EXPECT_EQ(row.str("impl"), "INV FAA");
    EXPECT_EQ(row.str("point"), "c=1");
    for (const char *key :
         {"ops", "mean_latency", "p50", "p95", "p99", "max_latency",
          "messages", "flits", "nacks", "retries", "invalidations",
          "updates", "ticks"})
        EXPECT_TRUE(row.has(key)) << "missing metric key " << key;
    EXPECT_EQ(row.num("ops"), 1.0);
    EXPECT_EQ(row.num("messages"), static_cast<double>(m.messages));
}

TEST(BenchReportTest, EmptyDsmBenchDirMeansCurrentDirectory)
{
    ASSERT_EQ(::setenv("DSM_BENCH_DIR", "", 1), 0);
    std::string dir = benchOutputDir();
    std::string path = BenchReport("emptydir").outputPath();
    ::unsetenv("DSM_BENCH_DIR");
    EXPECT_EQ(dir, ".");
    EXPECT_EQ(path, "./BENCH_emptydir.json");
    EXPECT_EQ(benchOutputDir(), ".");
}

TEST(BenchReportTest, WritesBenchJsonToDsmBenchDir)
{
    std::string dir = ::testing::TempDir();
    ASSERT_EQ(::setenv("DSM_BENCH_DIR", dir.c_str(), 1), 0);

    BenchReport rep("writetest");
    rep.meta("procs", 4);
    rep.row().set("impl", "x").set("value", 1.5);
    std::string path = rep.write();
    ::unsetenv("DSM_BENCH_DIR");

    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path, dir + "/BENCH_writetest.json");

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << "report file not written: " << path;
    std::string content;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        content.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());

    JsonValue root;
    ASSERT_TRUE(parseJsonOrFail(content, &root));
    EXPECT_EQ(root.str("schema"), "dsm-bench-v1");
    EXPECT_EQ(root.str("bench"), "writetest");
}

} // namespace
