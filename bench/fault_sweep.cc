/**
 * @file
 * Randomized fault-injection campaign: the Figure 6 implementation
 * matrix (INV/UPD/UNC x FAP/LL-SC/CAS) under the standard fault mix,
 * across many machine seeds. Every point runs the lock-free counter
 * under contention with message jitter, reservation drops, forced
 * evictions, and extra NACK rounds, and must pass the campaign
 * harness's standard gates (exp/campaign.hh); each fault class the mix
 * arms must fire somewhere in the campaign.
 *
 * Usage: fault_sweep [--seeds K] [--seed BASE] [--jobs N]
 *
 * The fault stream of each point derives from its machine seed, so
 * every point exercises a different schedule and any failure
 * reproduces from its row's "seed" field alone. DSM_FAULTS replaces
 * the standard mix.
 */

#include "cpu/system.hh"
#include "exp/campaign.hh"
#include "fault/fault.hh"
#include "workloads/counter_apps.hh"

using namespace dsm;

int
main(int argc, char **argv)
{
    Campaign c("fault_sweep", argc, argv);
    c.experiment()
        .title("Fault-injection campaign: lock-free counter, p=16, c=8")
        .meta("app", "lock-free counter")
        .rowKey("impl")
        .colKey("seed")
        .table(false);
    return c.axis(Knob::FAULTS, Place::NONE, {{"default", "default"}})
        .seeds(50)
        .total("injected", "faults injected")
        .total("nacks_injected", "NACKs",
               [](const Config &cfg) { return cfg.faults.nack_prob > 0; })
        .total("resv_drops", "reservation drops",
               [](const Config &cfg) {
                   return cfg.faults.resv_drop_prob > 0;
               })
        .total("forced_evictions", "evictions",
               [](const Config &cfg) { return cfg.faults.evict_prob > 0; })
        .total("jitter_applied", "jitters",
               [](const Config &cfg) {
                   return cfg.faults.msg_jitter_prob > 0;
               })
        .workload([](System &sys, const ImplCase &impl, const Gate &gate) {
            CounterAppConfig app;
            app.kind = CounterKind::LOCK_FREE;
            app.prim = impl.prim;
            app.contention = 8;
            app.phases = 4;
            CounterAppResult r = runCounterApp(sys, app);
            bool ok = gate(r.completed, r.correct);

            const FaultPlan::Counters &f = sys.faultPlan().counters();
            SysStats agg = sys.stats();
            PointResult res;
            res.value = r.avg_cycles_per_update;
            res.metrics = collectRunMetrics(sys);
            res.fields.set("seed", sys.cfg().machine.seed)
                .set("ok", static_cast<std::uint64_t>(ok))
                .set("updates", r.updates)
                .set("retries", agg.retries)
                .set("nacks", agg.nacks)
                .set("injected", f.nacks_injected + f.resv_drops +
                                     f.forced_evictions + f.jitter_applied)
                .set("nacks_injected", f.nacks_injected)
                .set("resv_drops", f.resv_drops)
                .set("forced_evictions", f.forced_evictions)
                .set("jitter_applied", f.jitter_applied)
                .set("jitter_cycles", f.jitter_cycles);
            return res;
        })
        .run();
}
