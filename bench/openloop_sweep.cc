/**
 * @file
 * Open-loop serving campaign: the Figure 6 implementation matrix
 * (INV/UPD/UNC x FAP/LL-SC/CAS) under a seeded Poisson arrival process
 * at increasing offered load, plus one bursty level. Unlike the
 * paper's closed-loop figures, the arrival rate is independent of
 * service times, so the campaign traces out the serving curves the
 * tail-observability layer exists for: throughput vs offered load
 * (rising, then saturating) and sojourn p50/p99/p999 vs offered load
 * (exploding past saturation), with an SLO-violation fraction as a
 * first-class metric.
 *
 * Every point passes the campaign harness's standard gates
 * (exp/campaign.hh), with the ADMIT (admission-wait) phase inside the
 * phase-sum partition and the serving ledger closed. Per
 * implementation, throughput over the pure-rate axis must saturate
 * without collapsing, and the top load must shed and miss the SLO.
 *
 * Usage: openloop_sweep [--seed BASE] [--jobs N]
 *
 * DSM_OPENLOOP replaces the load axis with one custom level. The
 * overload-protection serving layer runs with its defaults (combining +
 * backpressure + priority + NACK backoff); DSM_SERVE replaces them,
 * "0" measuring the unprotected stack. Either replacement skips the
 * campaign-level gates.
 */

#include <algorithm>

#include "cpu/system.hh"
#include "exp/campaign.hh"
#include "workloads/openloop.hh"

using namespace dsm;

int
main(int argc, char **argv)
{
    Campaign c("openloop_sweep", argc, argv);
    Config &base = c.experiment().baseConfig();
    // Points keep the Config of the committed baseline, which has no
    // watchdog.
    base.watchdog = WatchdogConfig();
    // Tail attribution and exemplar capture ride along on every point:
    // the ADMIT phase keeps the phase-sum invariant honest under
    // queueing, and the four slowest transactions' span trees land in
    // the report.
    base.txn_trace.enabled = true;
    base.txn_trace.exemplar_k = 4;
    c.experiment()
        .title("Open-loop serving campaign: Poisson arrivals into bounded "
               "admission queues, p=16; cell value = sojourn p99")
        .meta("app", "open-loop lock-free counter")
        .rowKey("impl")
        .colKey("load")
        .table(true)
        // Always harvest the Chrome/Perfetto span trees: the exemplar
        // slices (category txn_exemplar) are the point of the campaign,
        // and the TRACE_ file only lands when DSM_BENCH_DIR is set.
        .traceTxns(true);

    // Poisson arrivals per processor per cycle, from well under
    // saturation to well past it, then one bursty level at a moderate
    // rate.
    const char *common = "slo_cycles=2000,ops_per_proc=256";
    std::vector<Level> loads = {
        {"1e-4", csprintf("rate=0.0001,%s", common)},
        {"3e-4", csprintf("rate=0.0003,%s", common)},
        {"1e-3", csprintf("rate=0.001,%s", common)},
        {"3e-3", csprintf("rate=0.003,%s", common)},
        {"3e-4x8", csprintf("rate=0.0003,burst=8,%s", common)}};
    return c
        // Serve through the overload-protection layer: home combining
        // keeps hot-word fetch&adds O(1) in service slots and credit
        // backpressure sheds at the admission edge, which is what lets
        // the saturation gate demand a flat curve instead of tolerating
        // retry collapse.
        .axis(Knob::SERVE, Place::NONE, {{"on", "1"}})
        .axis(Knob::OPENLOOP, Place::COL, loads)
        .total("completed", "completed")
        .total("rejected", "rejected")
        .total("slo_violations", "SLO violations")
        .gates([loads](const Rows &rows) {
            std::string err;
            for (std::size_t i = 0; i < rows.size(); i += loads.size()) {
                // Saturation gate over the pure-rate levels (the bursty
                // last one rides outside it): throughput at every
                // overload point within 10% of the running peak.
                // Combining folds the retry storm's hot-word fetch&adds
                // into O(1) service slots and the credit throttle sheds
                // the excess at the edge, so any sag beyond 10% means a
                // protection mechanism regressed.
                double peak = 0.0;
                for (std::size_t li = 0; li + 1 < loads.size(); ++li) {
                    double tput = rows[i + li].num("throughput");
                    if (peak > 0 && tput < peak * 0.9)
                        err += csprintf("%s: throughput collapsed at load "
                                        "%s: peak %g -> %g\n",
                                        rows[i].str("impl").c_str(),
                                        loads[li].label.c_str(), peak,
                                        tput);
                    peak = std::max(peak, tput);
                }
            }
            // A sweep whose top load sheds nothing and never misses the
            // SLO is not probing the tail at all.
            if (sumField(rows, "rejected") == 0 ||
                sumField(rows, "slo_violations") == 0)
                err += "no shed arrivals or no SLO violations; the load "
                       "axis never saturates\n";
            return err;
        })
        .workload([](System &sys, const ImplCase &impl, const Gate &gate) {
            OpenLoopResult r = runOpenLoop(sys, impl.prim);
            bool ok = gate(r.completed_run, r.correct);

            PointResult res;
            res.value = static_cast<double>(r.sojourn_p99);
            res.metrics = collectRunMetrics(sys);
            res.fields.set("offered", r.offered)
                .set("admitted", r.admitted)
                .set("rejected", r.rejected)
                .set("completed", r.completed)
                .set("slo_violations", r.slo_violations)
                .set("slo_frac", r.slo_frac)
                .set("throughput", r.throughput)
                .set("sojourn_mean", r.sojourn_mean)
                .set("sojourn_p50",
                     static_cast<std::uint64_t>(r.sojourn_p50))
                .set("sojourn_p99",
                     static_cast<std::uint64_t>(r.sojourn_p99))
                .set("sojourn_p999",
                     static_cast<std::uint64_t>(r.sojourn_p999))
                .set("sojourn_max",
                     static_cast<std::uint64_t>(r.sojourn_max))
                .set("admission_wait_mean", r.admission_wait_mean)
                .set("ok", static_cast<std::uint64_t>(ok));
            // The full tail picture of the point: conditional per-phase
            // attribution above p90/p99 plus the slowest transactions'
            // summaries.
            JsonWriter w;
            w.beginObject();
            w.key("attribution");
            w.raw(sys.txns().attribution().tailJson());
            w.key("exemplars");
            w.raw(sys.txns().exemplarsJson());
            w.endObject();
            res.fields.setRaw("tail", w.str());
            return res;
        })
        .run();
}
