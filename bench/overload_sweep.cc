/**
 * @file
 * Overload and graceful-degradation campaign: the fetch&add column of
 * the implementation matrix (INV/UPD/UNC FAP) driven 1x/2x/4x past the
 * serving knee by the open-loop Poisson workload, ablated over the
 * overload-protection mechanisms of the serving layer: none,
 * +combining, +backpressure, +priority, all.
 *
 * The campaign certifies the graceful-degradation contract: with every
 * mechanism on, goodput at 2x and 4x saturation stays within 10% of
 * the row's running peak and the sojourn p99 stays bounded, while the
 * unprotected stack ("none") must demonstrably violate one of those at
 * the same loads — a sweep in which the baseline also degrades
 * gracefully is not probing overload at all. Every point also passes
 * the campaign harness's standard gates (exp/campaign.hh), including
 * the serving ledger and the phase-sum partition with the ADMIT phase.
 *
 * Usage: overload_sweep [--seed BASE] [--jobs N]
 *
 * DSM_SERVE replaces the mechanism axis with one custom mode and
 * DSM_OPENLOOP the load axis with one custom level; either skips the
 * campaign-level gates.
 */

#include <algorithm>

#include "cpu/system.hh"
#include "exp/campaign.hh"
#include "mem/home_queue.hh"
#include "workloads/openloop.hh"

using namespace dsm;

int
main(int argc, char **argv)
{
    Campaign c("overload_sweep", argc, argv);
    // The phase-sum invariant must hold with both the ADMIT queueing
    // phase and the serve layer's parked (backoff/throttle) cycles in
    // the ledger.
    c.experiment().baseConfig().txn_trace.enabled = true;
    c.experiment()
        .title("Overload campaign: open-loop fetch&add at 1x/2x/4x "
               "saturation, p=16; cell value = goodput, updates per 1000 "
               "cycles")
        .meta("app", "open-loop lock-free counter")
        .rowKey("impl_mode")
        .colKey("load")
        .table(true);

    // The fetch&add column of the application matrix: combining is a
    // home-side mechanism, so the home-served UNC/UPD implementations
    // show it directly while INV (which executes fetch&add in the
    // cache) exercises the other three mechanisms.
    std::vector<ImplCase> impls;
    for (const ImplCase &impl : applicationMatrix())
        if (impl.prim == Primitive::FAP)
            impls.push_back(impl);
    // Each protection in isolation, between none (first) and all (last).
    std::vector<Level> modes = {
        {"none", "0"},
        {"+combining",
         "combining=1,backpressure=0,priority=0,nack_backoff=0"},
        {"+backpressure",
         "combining=0,backpressure=1,priority=0,nack_backoff=0"},
        {"+priority", "combining=0,backpressure=0,priority=1,nack_backoff=0"},
        {"all", "1"}};
    // The serving knee for this machine sits near 1e-3 arrivals/cycle/
    // proc (the openloop_sweep axis), so 2e-3 and 4e-3 are 2x and 4x
    // saturation.
    const char *common = "slo_cycles=2000,ops_per_proc=192";
    std::vector<Level> loads = {
        {"1x", csprintf("rate=0.001,%s", common)},
        {"2x", csprintf("rate=0.002,%s", common)},
        {"4x", csprintf("rate=0.004,%s", common)}};

    std::size_t nm = modes.size(), nl = loads.size();
    auto gates = [impls, loads, nm, nl](const Rows &rows) {
        const std::size_t none = 0, all = nm - 1;
        auto at = [&](std::size_t ii, std::size_t mi,
                      std::size_t li) -> const JsonValue & {
            return rows[(ii * nm + mi) * nl + li];
        };
        std::string err;
        bool baseline_collapses = false;
        for (std::size_t ii = 0; ii < impls.size(); ++ii) {
            const char *impl = impls[ii].label.c_str();
            // Graceful degradation with every mechanism on: goodput at
            // every overload point within 10% of the running peak —
            // work keeps completing as offered load doubles past the
            // knee (overload shows up in the tail and in shedding, not
            // as a goodput cliff).
            double peak = 0.0;
            for (std::size_t li = 0; li < nl; ++li) {
                double goodput = at(ii, all, li).num("goodput");
                if (peak > 0 && goodput < peak * 0.9)
                    err += csprintf("%s all: goodput sagged > 10%% at "
                                    "load %s (peak %g -> %g)\n",
                                    impl, loads[li].label.c_str(), peak,
                                    goodput);
                peak = std::max(peak, goodput);
            }
            double none_1x_p99 = at(ii, none, 0).num("sojourn_p99");
            for (std::size_t li = 1; li < nl; ++li) {
                double none_p99 = at(ii, none, li).num("sojourn_p99");
                double all_p99 = at(ii, all, li).num("sojourn_p99");
                // The protections must never worsen the overload tail
                // (10% slack for schedule perturbation)...
                if (all_p99 > none_p99 * 1.1)
                    err += csprintf("%s at load %s: protections worsened "
                                    "the tail (p99 %g -> %g)\n",
                                    impl, loads[li].label.c_str(), none_p99,
                                    all_p99);
                // ... and the unprotected stack must demonstrably
                // collapse somewhere: p99 blowing past 8x its 1x value
                // or a majority of completions missing the SLO.
                if (none_p99 > 8.0 * std::max(none_1x_p99, 1.0) ||
                    at(ii, none, li).num("slo_frac") >= 0.5)
                    baseline_collapses = true;
            }
            // The paper's showcase: for the home-served UNC fetch&add,
            // combining folds the entire overload into O(1) service
            // slots, so the fully protected tail stays flat — p99 at 4x
            // saturation within 3x of its 1x value.
            if (impls[ii].label.rfind("UNC", 0) == 0) {
                double p99_1x = at(ii, all, 0).num("sojourn_p99");
                double p99_top = at(ii, all, nl - 1).num("sojourn_p99");
                if (p99_top > 3.0 * std::max(p99_1x, 1.0))
                    err += csprintf("%s all: combined fetch&add tail is "
                                    "not flat under 4x overload (p99 %g "
                                    "at 1x -> %g)\n",
                                    impl, p99_1x, p99_top);
            }
        }
        // The campaign must certify a contrast, not a tautology: the
        // unprotected stack has to visibly collapse somewhere on this
        // axis...
        if (!baseline_collapses)
            err += "baseline 'none' mode degraded gracefully everywhere; "
                   "the load axis is not probing overload\n";
        // ... and actually exercise every mechanism it ablates.
        if (sumField(rows, "serve_coalesced") == 0)
            err += "no requests were ever combined\n";
        if (sumField(rows, "throttle_events") == 0)
            err += "backpressure never throttled a requester\n";
        if (sumField(rows, "rejected") == 0)
            err += "no arrivals were ever shed\n";
        return err;
    };

    return c.impls(impls)
        .axis(Knob::SERVE, Place::ROW, modes)
        .axis(Knob::OPENLOOP, Place::COL, loads)
        .total("serve_coalesced", "coalesced")
        .total("throttle_events", "throttle events")
        .total("backoff_capped", "capped backoffs")
        .total("rejected", "shed")
        .gates(gates)
        .workload([](System &sys, const ImplCase &impl, const Gate &gate) {
            OpenLoopResult r = runOpenLoop(sys, impl.prim);
            bool ok = gate(r.completed_run, r.correct);

            const ServeStats &sst = sys.serveStats();
            double shed_frac =
                r.offered > 0 ? static_cast<double>(r.rejected) /
                                    static_cast<double>(r.offered)
                              : 0.0;
            PointResult res;
            res.value = r.throughput * 1000.0;
            res.metrics = collectRunMetrics(sys);
            res.fields.set("offered", r.offered)
                .set("admitted", r.admitted)
                .set("rejected", r.rejected)
                .set("completed", r.completed)
                .set("goodput", r.throughput)
                .set("shed_frac", shed_frac)
                .set("slo_violations", r.slo_violations)
                .set("slo_frac", r.slo_frac)
                .set("sojourn_mean", r.sojourn_mean)
                .set("sojourn_p50",
                     static_cast<std::uint64_t>(r.sojourn_p50))
                .set("sojourn_p99",
                     static_cast<std::uint64_t>(r.sojourn_p99))
                .set("sojourn_p999",
                     static_cast<std::uint64_t>(r.sojourn_p999))
                .set("serve_slots", sst.slots)
                .set("serve_coalesced", sst.coalesced)
                .set("serve_batches", sst.batches)
                .set("serve_aged", sst.aged)
                .set("throttle_events", sst.throttle_events)
                .set("backoff_capped", sst.backoff_capped)
                .set("ok", static_cast<std::uint64_t>(ok));
            return res;
        })
        .run();
}
