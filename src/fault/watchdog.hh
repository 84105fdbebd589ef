/**
 * @file
 * Forward-progress watchdogs: turn "the simulation hangs" into "the
 * simulation fails with a diagnosis". Two detectors:
 *
 *  - Deadlock (always on, no configuration): System::run() notices the
 *    event queue draining while tasks remain blocked and attaches
 *    Watchdog::blockedTxnDump() — every blocked transaction's state
 *    plus its TxnTracer span tree when transaction tracing is on.
 *  - Livelock/starvation (WatchdogConfig): any transaction exceeding
 *    the retry bound (checked on every retry) or the simulated-cycle
 *    age bound (checked by a periodic scan event) trips the watchdog;
 *    System::run() stops and reports RunResult::livelocked with the
 *    stored diagnosis instead of spinning to the tick deadline.
 */

#ifndef DSM_FAULT_WATCHDOG_HH
#define DSM_FAULT_WATCHDOG_HH

#include <cstdint>
#include <string>

#include "net/msg.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace dsm {

class System;

/**
 * Livelock/starvation detector. Trip state is sticky for the run; the
 * run loop polls tripped() and converts it into RunResult::livelocked.
 * The hooks are free when disabled: the retry hook, the scan event and
 * the run loop's poll all test WatchdogConfig::enabled first.
 */
class Watchdog
{
  public:
    void configure(const WatchdogConfig &cfg) { _cfg = cfg; }

    bool tripped() const { return _tripped; }
    /** Human-readable report of what tripped, "" until then. */
    const std::string &diagnosis() const { return _diag; }
    /** Stable storage for the fault.watchdog_trips stat. */
    const std::uint64_t *tripsCounter() const { return &_trips; }

    /**
     * Retry-bound check, called from Controller::retryTxn after the
     * retry counter is bumped.
     */
    void onRetry(System &sys, NodeId node, AtomicOp op, Addr addr,
                 int retries);

    /** Age-bound scan over every in-flight transaction. */
    void scan(System &sys);

    /**
     * Describe every blocked transaction in the system: controller
     * state (op, address, age, retries) plus the TxnTracer's phase
     * span tree when transaction tracing is enabled. Used both for
     * deadlock reports and to flesh out livelock trips.
     */
    static std::string blockedTxnDump(System &sys);

  private:
    void trip(System &sys, std::string why);

    WatchdogConfig _cfg;
    bool _tripped = false;
    std::string _diag;
    std::uint64_t _trips = 0;
};

} // namespace dsm

#endif // DSM_FAULT_WATCHDOG_HH
