/**
 * @file
 * Tests for the time-resolved telemetry subsystem: the TimeSeries
 * sampler (windowed deltas and gauges, ring eviction, the
 * sum-to-aggregate invariant), the event-queue sampling hook, the
 * per-line contention profiler, the stats-registry and JSON surface,
 * trace-ring drop accounting, and the Experiment export's
 * serial-vs-parallel byte identity.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "helpers.hh"
#include "stats/line_profiler.hh"
#include "stats/timeseries.hh"
#include "workloads/counter_apps.hh"

namespace {

using namespace dsmtest;

// ----- TimeSeries unit behavior -----

TEST(TimeSeriesUnit, DeltasGaugesAndRingEviction)
{
    TelemetryConfig tc;
    tc.enabled = true;
    tc.window = 10;
    tc.max_windows = 4;
    TimeSeries ts;
    ts.configure(tc);

    std::uint64_t ctr = 0, g = 0;
    ts.addDelta("ctr", [&] { return ctr; });
    ts.addGauge("g", [&] { return g; });
    EXPECT_EQ(ts.numSeries(), 2u);

    // Window w contributes delta w; six windows overflow the 4-ring.
    for (std::uint64_t w = 1; w <= 6; ++w) {
        ctr += w;
        g = w;
        ts.sample(w * 10);
    }
    EXPECT_EQ(ts.windowsSampled(), 6u);
    EXPECT_EQ(ts.windowsEvicted(), 2u);
    EXPECT_EQ(ts.seriesValues("ctr"),
              (std::vector<std::uint64_t>{3, 4, 5, 6}));
    // Evicted windows 1 and 2 are folded in, so the sum stays exact.
    EXPECT_EQ(ts.seriesTotal("ctr"), ctr);

    // finalize() captures the residual partial window.
    ctr += 5;
    ts.finalize(63);
    EXPECT_EQ(ts.windowsSampled(), 7u);
    EXPECT_EQ(ts.windowsEvicted(), 3u);
    EXPECT_EQ(ts.seriesValues("ctr"),
              (std::vector<std::uint64_t>{4, 5, 6, 5}));
    EXPECT_EQ(ts.seriesTotal("ctr"), ctr);
    // Gauges record instantaneous readings and simply lose old ones.
    EXPECT_EQ(ts.seriesValues("g"),
              (std::vector<std::uint64_t>{4, 5, 6, 6}));

    // finalize() is idempotent.
    ts.finalize(64);
    EXPECT_EQ(ts.windowsSampled(), 7u);

    // Unknown series read as empty/zero.
    EXPECT_EQ(ts.seriesTotal("nope"), 0u);
    EXPECT_TRUE(ts.seriesValues("nope").empty());

    // rebaseline() restarts the measured region at current counters.
    ts.rebaseline();
    EXPECT_EQ(ts.windowsSampled(), 0u);
    EXPECT_EQ(ts.seriesTotal("ctr"), 0u);
    ctr += 7;
    ts.sample(70);
    EXPECT_EQ(ts.seriesTotal("ctr"), 7u);
    EXPECT_EQ(ts.windowsEvicted(), 0u);
}

TEST(TimeSeriesUnit, EventQueueSamplerFiresPerWindowBoundary)
{
    EventQueue eq;
    std::vector<Tick> fired;
    eq.setSampler(10, [&](Tick t) { fired.push_back(t); });

    bool ran = false;
    eq.schedule(5, [] {});
    eq.schedule(25, [&] { ran = true; });
    eq.run();
    EXPECT_TRUE(ran);
    // Boundaries 10 and 20 are delivered before the event at 25; the
    // event at 5 precedes the first boundary.
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20}));

    // The final clock jump of runUntil() crosses boundaries too.
    eq.runUntil(41);
    EXPECT_EQ(eq.now(), 41u);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20, 30, 40}));

    // An event beyond the event queue's bucket window: every boundary
    // up to it is delivered, in order, before it runs.
    Tick far = 41 + 2 * EventQueue::WINDOW + 3;
    std::size_t before = 0;
    eq.schedule(far, [&] { before = fired.size(); });
    eq.run();
    EXPECT_EQ(eq.now(), far);
    ASSERT_EQ(before, static_cast<std::size_t>(far / 10));
    EXPECT_EQ(fired.size(), before);
    for (std::size_t i = 0; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], 10 * (i + 1));
}

// ----- LineProfiler unit behavior -----

TEST(LineProfilerUnit, ScoresRankAndMigrations)
{
    LineProfiler lp;
    lp.noteService(0x100, 7);
    lp.noteService(0x100, 3);
    lp.noteNack(0x100);
    lp.noteService(0x200, 1);

    // Regrant to the same owner is not a migration; a hand-off is.
    lp.noteOwner(0x100, 1);
    lp.noteOwner(0x100, 1);
    lp.noteOwner(0x100, 2);

    LineProfile p = lp.profile(0x100);
    EXPECT_EQ(p.requests, 2u);
    EXPECT_EQ(p.service_cycles, 10u);
    EXPECT_EQ(p.nacks, 1u);
    EXPECT_EQ(p.migrations, 1u);
    EXPECT_EQ(p.score(), 4u);
    EXPECT_EQ(lp.profile(0x7f000000).requests, 0u);

    EXPECT_EQ(lp.linesTracked(), 2u);
    std::vector<LineProfiler::Ranked> top = lp.ranked(8);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].addr, 0x100u);
    EXPECT_EQ(top[1].addr, 0x200u);
    EXPECT_GE(top[0].prof.score(), top[1].prof.score());

    // Ties break by ascending address, deterministically.
    lp.noteService(0x300, 1);
    top = lp.ranked(8);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[1].addr, 0x200u);
    EXPECT_EQ(top[2].addr, 0x300u);
}

// ----- System-level invariants -----

TEST(Telemetry, WindowDeltasSumToAggregates)
{
    Config cfg = smallConfig(SyncPolicy::INV, 16);
    cfg.telemetry.enabled = true;
    cfg.telemetry.window = 512;
    System sys(cfg);

    CounterAppConfig app;
    app.kind = CounterKind::LOCK_FREE;
    app.prim = Primitive::FAP;
    app.contention = 8;
    app.phases = 8;
    CounterAppResult r = runCounterApp(sys, app);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.correct);

    TimeSeries *ts = sys.telemetry();
    ASSERT_NE(ts, nullptr);
    ts->finalize(sys.now());
    EXPECT_GT(ts->windowsSampled(), 1u);

    // Every per-window delta, summed over all windows (including any
    // evicted ones), equals the end-of-run aggregate exactly.
    SysStats agg = sys.stats();
    const MeshStats &ms = sys.mesh().stats();
    EXPECT_EQ(ts->seriesTotal("nacks"), agg.nacks);
    EXPECT_EQ(ts->seriesTotal("retries"), agg.retries);
    EXPECT_EQ(ts->seriesTotal("invalidations"), agg.invalidations);
    EXPECT_EQ(ts->seriesTotal("messages"), ms.messages);
    EXPECT_EQ(ts->seriesTotal("flits"), ms.flits);
}

TEST(Telemetry, SumToAggregateSurvivesEviction)
{
    // A ring far smaller than the run: most windows are evicted, yet
    // the folded evicted sums keep the totals exact.
    Config cfg = smallConfig(SyncPolicy::INV, 8);
    cfg.telemetry.enabled = true;
    cfg.telemetry.window = 128;
    cfg.telemetry.max_windows = 2;
    System sys(cfg);

    CounterAppConfig app;
    app.contention = 8;
    app.phases = 8;
    CounterAppResult r = runCounterApp(sys, app);
    ASSERT_TRUE(r.completed);

    TimeSeries *ts = sys.telemetry();
    ASSERT_NE(ts, nullptr);
    ts->finalize(sys.now());
    EXPECT_GT(ts->windowsEvicted(), 0u);

    SysStats agg = sys.stats();
    const MeshStats &ms = sys.mesh().stats();
    EXPECT_EQ(ts->seriesTotal("nacks"), agg.nacks);
    EXPECT_EQ(ts->seriesTotal("messages"), ms.messages);
    EXPECT_EQ(ts->seriesTotal("flits"), ms.flits);
}

TEST(Telemetry, ClearStatsRebaselinesDeltas)
{
    Config cfg = smallConfig(SyncPolicy::INV, 4);
    cfg.telemetry.enabled = true;
    cfg.telemetry.window = 64;
    System sys(cfg);
    Addr a = sys.allocSync();

    auto contend = [&] {
        for (NodeId n = 0; n < 4; ++n) {
            sys.spawn([](Proc &p, Addr addr, int cnt) -> Task {
                for (int i = 0; i < cnt; ++i)
                    co_await p.fetchAdd(addr, 1);
            }(sys.proc(n), a, 8));
        }
        runAll(sys);
    };

    contend(); // warmup region, discarded by clearStats()
    sys.clearStats();
    contend(); // measured region

    TimeSeries *ts = sys.telemetry();
    ASSERT_NE(ts, nullptr);
    ts->finalize(sys.now());
    // Post-clear windows sum to the post-clear aggregates, exactly as
    // the paper-figure benches (warmup + clearStats + measure) need.
    EXPECT_EQ(ts->seriesTotal("nacks"), sys.stats().nacks);
    EXPECT_EQ(ts->seriesTotal("retries"), sys.stats().retries);
}

TEST(Telemetry, HotLineRankingIdentifiesContendedCounter)
{
    Config cfg = smallConfig(SyncPolicy::INV, 8);
    cfg.telemetry.enabled = true;
    System sys(cfg);
    Addr hot = sys.allocSync();
    std::vector<Addr> cold;
    for (int i = 0; i < 4; ++i)
        cold.push_back(sys.alloc(BLOCK_BYTES, BLOCK_BYTES));

    // All eight processors hammer one counter; the cold blocks see a
    // few loads each and then hit in cache.
    for (NodeId n = 0; n < 8; ++n) {
        sys.spawn([](Proc &p, Addr h, std::vector<Addr> cs,
                     int cnt) -> Task {
            for (int i = 0; i < cnt; ++i) {
                co_await p.fetchAdd(h, 1);
                co_await p.load(cs[static_cast<std::size_t>(
                    (p.id() + i) % static_cast<int>(cs.size()))]);
            }
        }(sys.proc(n), hot, cold, 16));
    }
    runAll(sys);
    EXPECT_EQ(sys.debugRead(hot), 128u);

    LineProfiler *lp = sys.lineProfiler();
    ASSERT_NE(lp, nullptr);
    EXPECT_GT(lp->linesTracked(), 1u);
    std::vector<LineProfiler::Ranked> top = lp->ranked(4);
    ASSERT_FALSE(top.empty());
    EXPECT_EQ(top[0].addr, blockBase(hot));
    EXPECT_GT(top[0].prof.requests, 0u);
    for (std::size_t i = 1; i < top.size(); ++i)
        EXPECT_GE(top[i - 1].prof.score(), top[i].prof.score());
}

// ----- Stats-registry and JSON surface -----

TEST(Telemetry, ZeroCostWhenOff)
{
    System sys(smallConfig(SyncPolicy::INV, 4));
    Addr a = sys.allocSyncAt(1);
    runOp(sys, 0, AtomicOp::FAA, a, 1);

    EXPECT_EQ(sys.telemetry(), nullptr);
    EXPECT_EQ(sys.lineProfiler(), nullptr);
    EXPECT_FALSE(sys.mesh().linkCountersEnabled());

    // The registry JSON keeps its pre-telemetry shape: no timeseries
    // group appears on a run with telemetry off.
    JsonValue root;
    ASSERT_TRUE(parseJsonOrFail(sys.statsJson(), &root));
    EXPECT_FALSE(root.has("timeseries"));
}

TEST(Telemetry, RegistryGroupPresentWhenOn)
{
    Config cfg = smallConfig(SyncPolicy::INV, 4);
    cfg.telemetry.enabled = true;
    cfg.telemetry.window = 256;
    System sys(cfg);
    Addr a = sys.allocSyncAt(1);
    runOp(sys, 0, AtomicOp::FAA, a, 1);

    JsonValue root;
    ASSERT_TRUE(parseJsonOrFail(sys.statsJson(), &root));
    const JsonValue *t = root.find("timeseries");
    ASSERT_NE(t, nullptr);
    EXPECT_GE(t->num("series"), 9.0);
    EXPECT_GE(t->num("lines_tracked"), 1.0);
    EXPECT_GE(t->num("windows"), 0.0);
    EXPECT_GE(t->num("windows_evicted"), 0.0);
}

TEST(Telemetry, TelemetryJsonShape)
{
    Config cfg = smallConfig(SyncPolicy::INV, 4);
    cfg.telemetry.enabled = true;
    cfg.telemetry.window = 128;
    System sys(cfg);
    Addr a = sys.allocSync();
    for (NodeId n = 0; n < 4; ++n) {
        sys.spawn([](Proc &p, Addr addr, int cnt) -> Task {
            for (int i = 0; i < cnt; ++i)
                co_await p.fetchAdd(addr, 1);
        }(sys.proc(n), a, 8));
    }
    runAll(sys);

    JsonValue root;
    ASSERT_TRUE(parseJsonOrFail(sys.telemetryJson(), &root));

    const JsonValue *ts = root.find("timeseries");
    ASSERT_NE(ts, nullptr);
    EXPECT_EQ(ts->num("window_cycles"), 128.0);
    const JsonValue *series = ts->find("series");
    ASSERT_NE(series, nullptr);
    const JsonValue *nacks = series->find("nacks");
    ASSERT_NE(nacks, nullptr);
    EXPECT_EQ(nacks->str("kind"), "delta");
    const JsonValue *vals = nacks->find("values");
    ASSERT_NE(vals, nullptr);
    EXPECT_TRUE(vals->isArray());
    const JsonValue *backlog = series->find("mem_backlog");
    ASSERT_NE(backlog, nullptr);
    EXPECT_EQ(backlog->str("kind"), "gauge");

    // The contended counter is a sync line and tops the hot-line table.
    const JsonValue *hot = root.find("hot_lines");
    ASSERT_NE(hot, nullptr);
    ASSERT_TRUE(hot->isArray());
    ASSERT_FALSE(hot->array.empty());
    const JsonValue &first = hot->array[0];
    EXPECT_EQ(first.num("addr"), static_cast<double>(blockBase(a)));
    EXPECT_GT(first.num("score"), 0.0);
    ASSERT_NE(first.find("sync"), nullptr);
    EXPECT_TRUE(first.find("sync")->boolean);

    // Per-directed-link offered load, row-major nodes x nodes.
    const JsonValue *links = root.find("links");
    ASSERT_NE(links, nullptr);
    EXPECT_EQ(links->num("nodes"), 4.0);
    EXPECT_EQ(links->num("mesh_x"), 2.0);
    const JsonValue *flits = links->find("flits");
    ASSERT_NE(flits, nullptr);
    ASSERT_EQ(flits->array.size(), 16u);
    double total = 0;
    for (const JsonValue &v : flits->array)
        total += v.number;
    EXPECT_GT(total, 0.0);
}

// ----- Trace-ring drop accounting (bounded-ring observability) -----

TEST(TraceAccounting, RecordedAndDroppedSurfaceInStatsAndChromeExport)
{
    Config cfg = smallConfig(SyncPolicy::INV, 4);
    cfg.trace.enabled = true;
    cfg.trace.capacity = 16; // tiny ring: overwrites are certain
    System sys(cfg);
    Addr a = sys.allocSync();
    for (NodeId n = 0; n < 4; ++n) {
        sys.spawn([](Proc &p, Addr addr, int cnt) -> Task {
            for (int i = 0; i < cnt; ++i)
                co_await p.fetchAdd(addr, 1);
        }(sys.proc(n), a, 8));
    }
    runAll(sys);

    JsonValue root;
    ASSERT_TRUE(parseJsonOrFail(sys.statsJson(), &root));
    const JsonValue *tr = root.find("trace");
    ASSERT_NE(tr, nullptr);
    double recorded = tr->num("recorded");
    double dropped = tr->num("dropped");
    EXPECT_GT(recorded, 16.0);
    // Retained = recorded - dropped = the ring capacity once wrapped.
    EXPECT_EQ(recorded - dropped, 16.0);

    // The Chrome export carries the same accounting in its footer.
    JsonValue chrome;
    ASSERT_TRUE(parseJsonOrFail(sys.tracer().exportChromeJson(), &chrome));
    EXPECT_EQ(chrome.num("dsm_recorded"), recorded);
    EXPECT_EQ(chrome.num("dsm_dropped"), dropped);
}

TEST(TraceAccounting, NoTraceGroupWhenTracingOff)
{
    System sys(smallConfig(SyncPolicy::INV, 4));
    Addr a = sys.allocSyncAt(1);
    runOp(sys, 0, AtomicOp::FAA, a, 1);
    JsonValue root;
    ASSERT_TRUE(parseJsonOrFail(sys.statsJson(), &root));
    EXPECT_FALSE(root.has("trace"));
}

// ----- Experiment export determinism -----

namespace exp_ident {

Experiment
build()
{
    Experiment ex("ts_identity", smallConfig(SyncPolicy::INV, 16));
    ex.quiet(true).writeReport(false).timeseries(true);
    for (int c : {4, 8}) {
        CounterAppConfig app;
        app.kind = CounterKind::LOCK_FREE;
        app.prim = Primitive::FAP;
        app.contention = c;
        app.phases = 4;
        ex.point("INV FAP", "c=" + std::to_string(c),
                 smallConfig(SyncPolicy::INV, 16), [app](System &sys) {
                     CounterAppResult r = runCounterApp(sys, app);
                     PointResult pr;
                     pr.value = r.avg_cycles_per_update;
                     pr.metrics = collectRunMetrics(sys);
                     return pr;
                 });
    }
    return ex;
}

} // namespace exp_ident

TEST(TelemetryExperiment, SerialAndParallelExportsAreByteIdentical)
{
    Experiment serial = exp_ident::build();
    serial.run(1);
    Experiment parallel = exp_ident::build();
    parallel.run(4);

    ASSERT_FALSE(serial.timeseriesJson().empty());
    EXPECT_EQ(serial.timeseriesJson(), parallel.timeseriesJson());
    EXPECT_EQ(serial.reportJson(), parallel.reportJson());

    JsonValue root;
    ASSERT_TRUE(parseJsonOrFail(serial.timeseriesJson(), &root));
    EXPECT_EQ(root.str("schema"), "dsm-timeseries-v1");
    EXPECT_EQ(root.str("bench"), "ts_identity");
    const JsonValue *meta = root.find("meta");
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->num("procs"), 16.0);
    const JsonValue *points = root.find("points");
    ASSERT_NE(points, nullptr);
    ASSERT_TRUE(points->isArray());
    ASSERT_EQ(points->array.size(), 2u);
    for (const JsonValue &p : points->array) {
        EXPECT_EQ(p.str("impl"), "INV FAP");
        EXPECT_TRUE(p.has("timeseries"));
        EXPECT_TRUE(p.has("hot_lines"));
        EXPECT_TRUE(p.has("links"));
    }
}

TEST(TelemetryExperiment, NoTimeseriesDocumentWhenOff)
{
    unsetenv("DSM_TIMESERIES"); // the env switch must not leak in
    Experiment ex("ts_off", smallConfig(SyncPolicy::INV, 4));
    ex.quiet(true).writeReport(false);
    ex.point("INV FAP", "c=1", smallConfig(SyncPolicy::INV, 4),
             [](System &sys) {
                 Addr a = sys.allocSync();
                 sys.spawn([](Proc &p, Addr addr) -> Task {
                     co_await p.fetchAdd(addr, 1);
                 }(sys.proc(0), a));
                 sys.run();
                 PointResult pr;
                 pr.metrics = collectRunMetrics(sys);
                 return pr;
             });
    ex.run(1);
    EXPECT_TRUE(ex.timeseriesJson().empty());
    EXPECT_TRUE(ex.timeseriesPath().empty());
}

} // anonymous namespace
