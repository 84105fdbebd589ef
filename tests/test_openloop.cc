/**
 * @file
 * Tests for the open-loop serving stack: OpenLoopConfig parsing and
 * validation, the bounded admission queues, the seeded Poisson/bursty
 * workload engine (determinism serial vs --jobs, exact counter, phase
 * sums with the ADMIT phase), tail-cut conditional attribution, the
 * slowest-transaction exemplar reservoir and its Perfetto export, the
 * p999 percentile surface, and the zero-cost-when-off contract.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include "cpu/admission.hh"
#include "exp/experiment.hh"
#include "helpers.hh"
#include "workloads/openloop.hh"

namespace {

using namespace dsmtest;

// ----- OpenLoopConfig parsing and validation -----

TEST(OpenLoopConfig, ParseDefaultsAndSpecs)
{
    OpenLoopConfig c;
    EXPECT_TRUE(c.parse("1").empty());
    EXPECT_TRUE(c.enabled);
    EXPECT_DOUBLE_EQ(c.rate_ppc, 0.001);
    EXPECT_EQ(c.burst, 1);

    OpenLoopConfig d;
    EXPECT_TRUE(d.parse("default").empty());
    EXPECT_TRUE(d.enabled);

    OpenLoopConfig s;
    EXPECT_TRUE(
        s.parse("rate=0.01,burst=4,queue_cap=8,slo_cycles=500,"
                "ops_per_proc=32")
            .empty());
    EXPECT_TRUE(s.enabled);
    EXPECT_DOUBLE_EQ(s.rate_ppc, 0.01);
    EXPECT_EQ(s.burst, 4);
    EXPECT_EQ(s.queue_cap, 8);
    EXPECT_EQ(s.slo_cycles, 500u);
    EXPECT_EQ(s.ops_per_proc, 32);

    // summary() round-trips through parse().
    OpenLoopConfig r;
    EXPECT_TRUE(r.parse(s.summary()).empty());
    EXPECT_DOUBLE_EQ(r.rate_ppc, s.rate_ppc);
    EXPECT_EQ(r.burst, s.burst);
    EXPECT_EQ(r.queue_cap, s.queue_cap);
    EXPECT_EQ(r.slo_cycles, s.slo_cycles);
    EXPECT_EQ(r.ops_per_proc, s.ops_per_proc);
}

TEST(OpenLoopConfig, ParseErrorsAreDescriptive)
{
    OpenLoopConfig c;
    std::string err = c.parse("rate");
    EXPECT_NE(err.find("not key=value"), std::string::npos) << err;
    err = c.parse("rate=abc");
    EXPECT_NE(err.find("not a number"), std::string::npos) << err;
    err = c.parse("bogus=1");
    EXPECT_NE(err.find("unknown openloop spec key"), std::string::npos)
        << err;
}

TEST(OpenLoopConfig, ValidateRejectsBadKnobs)
{
    auto expectInvalid = [](void (*tweak)(Config &),
                            const char *needle) {
        Config cfg = smallConfig();
        cfg.openloop.enabled = true;
        cfg.openloop.rate_ppc = 0.001;
        tweak(cfg);
        std::string err = cfg.validate();
        EXPECT_NE(err.find(needle), std::string::npos)
            << "validate() said: " << err;
    };
    expectInvalid([](Config &c) { c.openloop.rate_ppc = 0.0; },
                  "rate_ppc");
    expectInvalid([](Config &c) { c.openloop.rate_ppc = 1.5; },
                  "rate_ppc");
    expectInvalid([](Config &c) { c.openloop.burst = 0; }, "burst");
    expectInvalid([](Config &c) { c.openloop.burst = 5000; }, "burst");
    expectInvalid([](Config &c) { c.openloop.queue_cap = 0; },
                  "admission slot");
    expectInvalid([](Config &c) { c.openloop.ops_per_proc = 0; },
                  "ops_per_proc");

    // A disabled config never validates its knobs.
    Config off = smallConfig();
    off.openloop.rate_ppc = 99.0;
    EXPECT_TRUE(off.validate().empty());
}

// ----- Admission queues -----

TEST(AdmissionQueues, BoundsDepthAndCountsSheds)
{
    OpenLoopConfig cfg;
    cfg.enabled = true;
    cfg.rate_ppc = 0.01;
    cfg.queue_cap = 2;
    cfg.slo_cycles = 10;
    AdmissionQueues adm;
    adm.configure(cfg, 2);

    EXPECT_TRUE(adm.offer(0, 100));
    EXPECT_TRUE(adm.offer(0, 101));
    EXPECT_FALSE(adm.offer(0, 102)); // full: shed
    EXPECT_TRUE(adm.offer(1, 102));  // other node unaffected
    EXPECT_EQ(adm.depth(0), 2u);
    EXPECT_EQ(adm.stats().offered, 4u);
    EXPECT_EQ(adm.stats().admitted, 3u);
    EXPECT_EQ(adm.stats().rejected, 1u);
    EXPECT_EQ(adm.stats().depth_on_arrival.max(), 2u);

    EXPECT_EQ(adm.pop(0, 105), 100u); // FIFO; waited 5
    EXPECT_EQ(adm.stats().admission_wait.max, 5u);
    adm.complete(100, 105); // sojourn 5 <= SLO
    adm.complete(101, 120); // sojourn 19 > SLO
    EXPECT_EQ(adm.stats().completed, 2u);
    EXPECT_EQ(adm.stats().slo_violations, 1u);
    EXPECT_EQ(adm.stats().sojourn.max, 19u);
}

// ----- The open-loop workload engine -----

Config
openLoopConfig(double rate, int burst = 1, int ops = 64,
               int queue_cap = 64)
{
    Config cfg = smallConfig(SyncPolicy::INV, 4);
    cfg.openloop.enabled = true;
    cfg.openloop.rate_ppc = rate;
    cfg.openloop.burst = burst;
    cfg.openloop.ops_per_proc = ops;
    cfg.openloop.queue_cap = queue_cap;
    cfg.openloop.slo_cycles = 400;
    return cfg;
}

TEST(OpenLoopRun, ServesEveryAdmittedArrivalExactly)
{
    Config cfg = openLoopConfig(0.002);
    cfg.txn_trace.enabled = true;
    System sys(cfg);
    OpenLoopResult r = runOpenLoop(sys, Primitive::FAP);

    EXPECT_TRUE(r.completed_run);
    EXPECT_TRUE(r.correct);
    EXPECT_EQ(r.offered, 4u * 64u);
    EXPECT_EQ(r.admitted + r.rejected, r.offered);
    EXPECT_EQ(r.completed, r.admitted); // the queues fully drain
    EXPECT_GT(r.sojourn_max, 0u);
    EXPECT_GE(r.sojourn_p999, r.sojourn_p99);
    EXPECT_GE(r.sojourn_p99, r.sojourn_p50);
    const OpenLoopStats &os = sys.admissionState().stats();
    EXPECT_EQ(os.completed, r.completed);
    EXPECT_EQ(os.sojourn.count, r.completed);

    // Every transaction's phase sums (including the new ADMIT phase)
    // still partition its end-to-end latency exactly.
    EXPECT_EQ(sys.txns().phaseSumMismatches(), 0u);
    expectCoherent(sys);
}

TEST(OpenLoopRun, AdmitPhaseCarriesQueueingDelay)
{
    // Saturating load on one hot counter: arrivals must queue, so the
    // tracer's ADMIT phase has to absorb the admission wait.
    Config cfg = openLoopConfig(0.05, 4);
    cfg.txn_trace.enabled = true;
    System sys(cfg);
    OpenLoopResult r = runOpenLoop(sys, Primitive::CAS);

    EXPECT_TRUE(r.completed_run);
    EXPECT_TRUE(r.correct);
    EXPECT_EQ(sys.txns().phaseSumMismatches(), 0u);

    const LatencyStat *admit = sys.txns().attribution().allPhaseStat(
        static_cast<int>(TxnPhase::ADMIT));
    EXPECT_GT(admit->count, 0u);
    EXPECT_GT(admit->sum, 0u);
    EXPECT_GT(r.admission_wait_mean, 0.0);
}

TEST(OpenLoopRun, OverloadShedsAtTheConfiguredCap)
{
    Config cfg = openLoopConfig(0.05, 1, 64, /*queue_cap=*/1);
    System sys(cfg);
    OpenLoopResult r = runOpenLoop(sys, Primitive::FAP);

    EXPECT_TRUE(r.completed_run);
    EXPECT_TRUE(r.correct);
    EXPECT_GT(r.rejected, 0u);
    // Depth observed on arrival can never exceed the cap.
    EXPECT_LE(sys.admissionState().stats().depth_on_arrival.max(), 1u);
    EXPECT_GT(r.slo_violations, 0u);
    EXPECT_GT(r.slo_frac, 0.0);
}

TEST(OpenLoopRun, DeterministicAcrossJobs)
{
    // The same seeded sweep, serial vs 4 host threads, must render a
    // byte-identical report (the determinism contract).
    auto buildAndRun = [](int jobs) {
        Config base = smallConfig(SyncPolicy::INV, 4);
        Experiment ex("openloop_determinism", base);
        ex.quiet(true).writeReport(false).table(false);
        for (double rate : {0.001, 0.01}) {
            for (Primitive prim :
                 {Primitive::FAP, Primitive::CAS, Primitive::LLSC}) {
                Config cfg = openLoopConfig(rate);
                cfg.txn_trace.enabled = true;
                cfg.txn_trace.exemplar_k = 2;
                ex.point(csprintf("prim%d", static_cast<int>(prim)),
                         csprintf("rate=%g", rate), cfg,
                         [prim](System &sys) {
                             OpenLoopResult r = runOpenLoop(sys, prim);
                             PointResult res;
                             res.value = r.sojourn_mean;
                             res.metrics = collectRunMetrics(sys);
                             res.fields
                                 .set("completed", r.completed)
                                 .set("rejected", r.rejected)
                                 .set("sojourn_p999",
                                      static_cast<std::uint64_t>(
                                          r.sojourn_p999));
                             res.fields.setRaw(
                                 "tail", sys.txns().exemplarsJson());
                             return res;
                         });
            }
        }
        ex.run(jobs);
        return ex.reportJson();
    };
    std::string serial = buildAndRun(1);
    std::string parallel = buildAndRun(4);
    EXPECT_EQ(serial, parallel);
}

// ----- Exemplar reservoir -----

TEST(Exemplars, KeepsTheKSlowestSortedAndDeterministic)
{
    Config cfg = openLoopConfig(0.02, 2);
    cfg.txn_trace.enabled = true;
    cfg.txn_trace.exemplar_k = 4;
    System sys(cfg);
    runOpenLoop(sys, Primitive::CAS);

    const std::vector<TxnRecord> &ex = sys.txns().exemplars();
    ASSERT_LE(ex.size(), 4u);
    ASSERT_GT(ex.size(), 0u);
    for (std::size_t i = 1; i < ex.size(); ++i) {
        Tick prev = ex[i - 1].complete - ex[i - 1].issue;
        Tick cur = ex[i].complete - ex[i].issue;
        EXPECT_GE(prev, cur) << "exemplars not sorted slowest-first";
        if (prev == cur) {
            EXPECT_LT(ex[i - 1].id, ex[i].id);
        }
    }
    // No transaction in the full record set is slower than the head.
    Tick head = ex[0].complete - ex[0].issue;
    for (const TxnRecord &r : sys.txns().records())
        EXPECT_LE(r.complete - r.issue, head);

    // A second identical run captures identical exemplars.
    System sys2(cfg);
    runOpenLoop(sys2, Primitive::CAS);
    const std::vector<TxnRecord> &ex2 = sys2.txns().exemplars();
    ASSERT_EQ(ex.size(), ex2.size());
    for (std::size_t i = 0; i < ex.size(); ++i) {
        EXPECT_EQ(ex[i].id, ex2[i].id);
        EXPECT_EQ(ex[i].complete, ex2[i].complete);
    }
}

TEST(Exemplars, SurviveRecordEvictionIntoChromeExport)
{
    // A tiny record capacity evicts most transactions, but the
    // reservoir must still deliver the slowest span trees into the
    // Perfetto export, categorized txn_exemplar.
    Config cfg = openLoopConfig(0.02, 2);
    cfg.txn_trace.enabled = true;
    cfg.txn_trace.capacity = 2;
    cfg.txn_trace.exemplar_k = 3;
    System sys(cfg);
    runOpenLoop(sys, Primitive::CAS);

    const std::vector<TxnRecord> &ex = sys.txns().exemplars();
    ASSERT_GT(ex.size(), 0u);

    std::string events =
        sys.txns().chromeEventsJsonArray(1, "openloop test");
    JsonValue doc;
    ASSERT_TRUE(parseJsonOrFail(events, &doc));
    ASSERT_TRUE(doc.isArray());
    std::size_t exemplar_events = 0;
    for (const JsonValue &e : doc.array) {
        const JsonValue *cat = e.find("cat");
        if (cat != nullptr && cat->string == "txn_exemplar")
            ++exemplar_events;
    }
    // At least one complete event per exemplar (span children extra).
    EXPECT_GE(exemplar_events, ex.size());

    // exemplarsJson() renders one entry per reservoir slot.
    JsonValue ej;
    ASSERT_TRUE(parseJsonOrFail(sys.txns().exemplarsJson(), &ej));
    ASSERT_TRUE(ej.isArray());
    EXPECT_EQ(ej.array.size(), ex.size());
    for (const JsonValue &e : ej.array) {
        EXPECT_TRUE(e.has("id"));
        EXPECT_TRUE(e.has("total"));
        EXPECT_TRUE(e.has("phases"));
    }
}

// ----- Tail-cut conditional attribution -----

TEST(TailCut, PhaseSumsPartitionTheTailExactly)
{
    Config cfg = openLoopConfig(0.02, 2, 128);
    cfg.txn_trace.enabled = true;
    System sys(cfg);
    runOpenLoop(sys, Primitive::LLSC);

    const PhaseAttribution &attr = sys.txns().attribution();
    ASSERT_GT(attr.tailRecords(), 0u);
    EXPECT_EQ(attr.tailDropped(), 0u);

    for (double q : {0.90, 0.99}) {
        PhaseAttribution::TailCut cut = attr.tailCut(q);
        ASSERT_GT(cut.count, 0u) << "q=" << q;
        EXPECT_EQ(cut.total.count, cut.count);
        // The conditional per-phase sums add up exactly to the tail
        // transactions' end-to-end cycles: attribution is a partition,
        // not an approximation.
        std::uint64_t phase_sum = 0;
        for (int ph = 0; ph < NUM_TXN_PHASES; ++ph)
            phase_sum += cut.phase[ph].sum;
        EXPECT_EQ(phase_sum, cut.total.sum) << "q=" << q;
        // Nearest-rank cut: at most (1-q) of the records qualify, and
        // every qualifying total is at or above the threshold.
        EXPECT_GE(cut.total.max, cut.threshold);
    }
    // The p99 cut is no larger than the p90 cut.
    EXPECT_LE(attr.tailCut(0.99).count, attr.tailCut(0.90).count);

    // tailJson() renders both cuts.
    JsonValue tj;
    ASSERT_TRUE(parseJsonOrFail(attr.tailJson(), &tj));
    EXPECT_TRUE(tj.has("p90"));
    EXPECT_TRUE(tj.has("p99"));
    EXPECT_EQ(static_cast<std::uint64_t>(tj.num("records")),
              attr.tailRecords());
}

TEST(TailCut, BoundedCapacityCountsDrops)
{
    Config cfg = openLoopConfig(0.02, 1, 64);
    cfg.txn_trace.enabled = true;
    cfg.txn_trace.tail_capacity = 8;
    System sys(cfg);
    runOpenLoop(sys, Primitive::FAP);

    const PhaseAttribution &attr = sys.txns().attribution();
    EXPECT_EQ(attr.tailRecords(), 8u);
    EXPECT_GT(attr.tailDropped(), 0u);
}

// ----- p999 surface -----

TEST(P999, HistogramNearestRankIsExact)
{
    Histogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.add(v);
    // Nearest-rank: ceil(0.999 * 1000) = 999th smallest.
    EXPECT_EQ(h.p999(), 999u);
    EXPECT_EQ(h.p99(), 990u);

    LatencyStat lat;
    lat.sample(100);
    EXPECT_GE(lat.p999(), lat.p99());
    EXPECT_LE(lat.p999(), lat.max);
}

TEST(P999, EmittedInStatsJsonAndReports)
{
    Config cfg = openLoopConfig(0.01);
    System sys(cfg);
    runOpenLoop(sys, Primitive::FAP);

    JsonValue stats;
    ASSERT_TRUE(parseJsonOrFail(sys.statsJson(), &stats));
    const JsonValue *ol = stats.find("openloop");
    ASSERT_NE(ol, nullptr);
    const JsonValue *soj = ol->find("sojourn");
    ASSERT_NE(soj, nullptr);
    EXPECT_TRUE(soj->has("p999"));
    EXPECT_TRUE(soj->has("p99"));
    EXPECT_GE(soj->num("p999"), soj->num("p99"));

    // Text report carries the new column too.
    EXPECT_NE(sys.report().find("p999="), std::string::npos);

    // RunMetrics rows emit p999 after p99.
    RunMetrics m = collectRunMetrics(sys);
    BenchRow row;
    row.metrics(m);
    BenchReport rep("p999_probe");
    rep.append(row);
    JsonValue doc;
    ASSERT_TRUE(parseJsonOrFail(rep.toJson(), &doc));
    const JsonValue *rows = doc.find("results");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->array.size(), 1u);
    EXPECT_TRUE(rows->array[0].has("p999"));
    EXPECT_GE(rows->array[0].num("p999"), rows->array[0].num("p99"));
}

// ----- Zero cost when off -----

TEST(OpenLoopOff, LeavesStatsJsonShapeUntouched)
{
    Config cfg = smallConfig();
    System sys(cfg);
    Addr a = sys.allocSync();
    sys.spawn(doStore(sys.proc(0), a, 7));
    runAll(sys);

    EXPECT_EQ(sys.admissionState().stats().offered, 0u);
    std::string stats = sys.statsJson();
    EXPECT_EQ(stats.find("openloop"), std::string::npos);
    EXPECT_EQ(stats.find("txn.tail"), std::string::npos);
}

} // namespace
