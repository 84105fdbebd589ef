/**
 * @file
 * Faulty-channel chaos campaign: the Figure 6 implementation matrix
 * (INV/UPD/UNC x FAP/LL-SC/CAS) on the contended lock-free counter
 * under six escalating channel levels. The first three are message
 * loss alone — random drops at two rates, then drops plus a seeded
 * whole-link flaky episode with quarantine — and certify the recovery
 * layer by itself; the last three arm all six channel fault axes at
 * once: delivery jitter, random loss, flaky links, bounded-skew
 * reordering, delayed duplication, and payload corruption.
 *
 * Every point runs with transaction tracing on and must pass the
 * campaign harness's standard gates (exp/campaign.hh): completion with
 * no watchdog trip, the exact counter, coherence, the extended fault
 * ledger (every drop covered, every corruption detected, every
 * duplicate absorbed, every reorder delivered), and phase sums that
 * still partition every latency. Each axis a level arms must fire
 * somewhere in the campaign.
 *
 * Usage: chaos_sweep [--seeds K] [--seed BASE] [--jobs N]
 *
 * DSM_FAULTS replaces the level axis with one custom level; a failure's
 * repro line sets exactly that.
 */

#include "cpu/system.hh"
#include "exp/campaign.hh"
#include "fault/fault.hh"
#include "fault/recovery.hh"
#include "workloads/counter_apps.hh"

using namespace dsm;

int
main(int argc, char **argv)
{
    Campaign c("chaos_sweep", argc, argv);
    c.experiment().baseConfig().txn_trace.enabled = true;
    c.experiment()
        .title("Faulty-channel chaos campaign: lock-free counter, p=16, "
               "c=8")
        .meta("app", "lock-free counter")
        .rowKey("impl")
        .colKey("chaos")
        .table(false);
    // Loss, flaky links and corruption all end in drops that only a
    // retransmission or a link quarantine may cover.
    Armed drops = [](const Config &cfg) {
        return cfg.faults.lossEnabled() || cfg.faults.corrupt_prob > 0;
    };
    return c
        .axis(Knob::FAULTS, Place::COL,
              {{"2e-4", "drop_prob=0.0002,req_timeout=2000"},
               {"1e-3", "drop_prob=0.001,req_timeout=2000"},
               {"1e-3+flaky",
                "drop_prob=0.001,flaky_links=1,flaky_window=50000,"
                "flaky_duration=50000,flaky_drop_prob=1,req_timeout=2000,"
                "quarantine_k=2,quarantine_window=1000000000"},
               // "mild" keeps each chaos axis rare, "moderate" raises
               // every rate, and "heavy+flaky" adds a guaranteed flaky
               // episode with quarantine plus the LL reservation age
               // bound.
               {"mild",
                "jitter_prob=0.001,jitter_max=8,drop_prob=0.0002,"
                "reorder_prob=0.0005,reorder_max=16,dup_prob=0.0005,"
                "dup_delay=32,corrupt_prob=0.0002,req_timeout=2000"},
               {"moderate",
                "jitter_prob=0.002,jitter_max=16,drop_prob=0.0005,"
                "reorder_prob=0.001,reorder_max=32,dup_prob=0.001,"
                "dup_delay=64,corrupt_prob=0.0005,req_timeout=2000"},
               {"heavy+flaky",
                "jitter_prob=0.005,jitter_max=32,drop_prob=0.001,"
                "flaky_links=1,flaky_window=50000,flaky_duration=50000,"
                "flaky_drop_prob=1,quarantine_k=2,"
                "quarantine_window=1000000000,reorder_prob=0.002,"
                "reorder_max=64,dup_prob=0.002,dup_delay=128,"
                "corrupt_prob=0.001,resv_max_age=200000,req_timeout=2000"}})
        .seeds(8)
        .total("drops", "drops", drops)
        .total("retransmits", "retransmits", drops)
        .total("dup_replayed", "replays")
        .total("links_quarantined", "quarantines")
        .total("msg_reorders", "reorders",
               [](const Config &cfg) { return cfg.faults.reorder_prob > 0; })
        .total("msg_dups", "dups",
               [](const Config &cfg) { return cfg.faults.dup_prob > 0; })
        .total("msg_corruptions", "corruptions",
               [](const Config &cfg) { return cfg.faults.corrupt_prob > 0; })
        .workload([](System &sys, const ImplCase &impl, const Gate &gate) {
            CounterAppConfig app;
            app.kind = CounterKind::LOCK_FREE;
            app.prim = impl.prim;
            // Fault rates are per message: the run must be long enough
            // that every level expects many events.
            app.contention = 8;
            app.phases = 64;
            CounterAppResult r = runCounterApp(sys, app);
            bool ok = gate(r.completed, r.correct);

            const FaultPlan::Counters &f = sys.faultPlan().counters();
            const Recovery::Counters &rc = sys.recoveryState().counters();
            SysStats agg = sys.stats();
            PointResult res;
            res.value = r.avg_cycles_per_update;
            res.metrics = collectRunMetrics(sys);
            res.fields.set("seed", sys.cfg().machine.seed)
                .set("ok", static_cast<std::uint64_t>(ok))
                .set("updates", r.updates)
                .set("retries", agg.retries)
                .set("nacks", agg.nacks)
                .set("msg_drops", f.msg_drops)
                .set("flaky_drops", f.flaky_drops)
                .set("msg_reorders", f.msg_reorders)
                .set("msg_dups", f.msg_dups)
                .set("msg_corruptions", f.msg_corruptions)
                .set("drops", rc.drops)
                .set("req_drops", rc.req_drops)
                .set("reply_drops", rc.reply_drops)
                .set("retransmits", rc.retransmits)
                .set("retransmit_covered", rc.retransmit_covered)
                .set("quarantine_covered", rc.quarantine_covered)
                .set("corrupt_detected", rc.corrupt_detected)
                .set("dups_absorbed", rc.dups_absorbed)
                .set("reorders_delivered", rc.reorders_delivered)
                .set("dup_replayed", rc.dup_replayed)
                .set("dup_reprocessed", rc.dup_reprocessed)
                .set("links_quarantined", rc.links_quarantined)
                .set("nacks_lost", rc.nacks_lost)
                .set("stale_replies", rc.stale_replies);
            return res;
        })
        .run();
}
