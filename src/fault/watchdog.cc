#include "fault/watchdog.hh"

#include "cpu/system.hh"
#include "proto/controller.hh"
#include "sim/logging.hh"
#include "trace/txn.hh"

namespace dsm {

namespace {

/** One line of controller-side state for a blocked transaction. */
std::string
describeTxn(System &sys, NodeId n)
{
    Controller &c = sys.ctrl(n);
    std::string attempt;
    if (sys.cfg().faults.recoveryEnabled())
        attempt = csprintf(" attempt=%d", c.cpuAttempt());
    // Overload-protection park state: a transaction waiting out a
    // deliberate backoff or credit throttle is not stuck.
    std::string park;
    if (sys.now() < c.cpuParkedUntil())
        park = csprintf(" (throttled: %s until %llu)",
                        c.cpuParkKind() ==
                                Controller::ParkKind::THROTTLED
                            ? "credit"
                            : "backoff",
                        (unsigned long long)c.cpuParkedUntil());
    std::string s = csprintf(
        "  node %d: %s addr=%#llx issued@%llu age=%llu retries=%d%s%s%s\n",
        (int)n, toString(c.cpuOp()), (unsigned long long)c.cpuAddr(),
        (unsigned long long)c.cpuStart(),
        (unsigned long long)(sys.now() - c.cpuStart()), c.cpuRetries(),
        attempt.c_str(), c.cpuWaiting() ? " (awaiting reply)" : "",
        park.c_str());
    s += sys.txns().describeActive(n);
    return s;
}

} // namespace

void
Watchdog::onRetry(System &sys, NodeId node, AtomicOp op, Addr addr,
                  int retries)
{
    if (_tripped || _cfg.max_retries == 0 || retries <= _cfg.max_retries)
        return;
    trip(sys, csprintf("node %d %s addr=%#llx exceeded the retry bound: "
                       "%d retries > max_retries=%d",
                       (int)node, toString(op), (unsigned long long)addr,
                       retries, _cfg.max_retries));
}

void
Watchdog::scan(System &sys)
{
    if (_tripped || _cfg.max_txn_age == 0)
        return;
    for (NodeId n = 0; n < sys.numProcs(); ++n) {
        Controller &c = sys.ctrl(n);
        if (!c.cpuBusy())
            continue;
        Tick age = sys.now() - c.cpuStart();
        // A transaction parked in a contention backoff or a credit
        // throttle (serve.*) is deliberately waiting with a scheduled
        // wake-up, not livelocked — and the cycles past parks already
        // cost it are equally deliberate. Charge only un-parked age
        // against the bound; parks show up as `throttled` in
        // blocked-transaction dumps.
        if (sys.cfg().serve.enabled) {
            if (sys.now() < c.cpuParkedUntil())
                continue;
            Tick parked = c.cpuParkedCycles();
            age = age > parked ? age - parked : 0;
        }
        if (age <= _cfg.max_txn_age)
            continue;
        trip(sys, csprintf("node %d %s addr=%#llx exceeded the age "
                           "bound: age %llu > max_txn_age=%llu "
                           "(retries=%d)",
                           (int)n, toString(c.cpuOp()),
                           (unsigned long long)c.cpuAddr(),
                           (unsigned long long)age,
                           (unsigned long long)_cfg.max_txn_age,
                           c.cpuRetries()));
        return;
    }
}

void
Watchdog::trip(System &sys, std::string why)
{
    _tripped = true;
    ++_trips;
    _diag = "livelock watchdog tripped: " + why + "\n" +
            blockedTxnDump(sys);
}

std::string
Watchdog::blockedTxnDump(System &sys)
{
    std::string out = csprintf("%d task(s) pending at tick %llu; "
                               "in-flight transactions:\n",
                               sys.tasksPending(),
                               (unsigned long long)sys.now());
    // Fault-stream position: a repro at the dumped seed can fast-
    // forward the stream to this draw count to reach the same state.
    if (sys.cfg().faults.enabled)
        out += csprintf(
            "  fault stream: seed=%llu draws=%llu\n",
            (unsigned long long)sys.faultPlan().resolvedSeed(),
            (unsigned long long)sys.faultPlan().draws());
    int busy = 0;
    for (NodeId n = 0; n < sys.numProcs(); ++n) {
        if (!sys.ctrl(n).cpuBusy())
            continue;
        ++busy;
        out += describeTxn(sys, n);
    }
    if (busy == 0)
        out += "  (no controller has an active transaction; the "
               "workload is blocked outside the protocol layer)\n";
    return out;
}

} // namespace dsm
