/**
 * @file
 * Top-level simulated machine: the event queue, interconnect, per-node
 * memory modules/directories/controllers/processors, the shared address
 * space, and the sync-region registry that assigns the studied coherence
 * policy to atomically accessed data (Section 3: the base protocol for
 * all other data is write-invalidate).
 */

#ifndef DSM_CPU_SYSTEM_HH
#define DSM_CPU_SYSTEM_HH

#include <memory>
#include <unordered_set>
#include <vector>

#include "cpu/admission.hh"
#include "cpu/proc.hh"
#include "cpu/sync_barrier.hh"
#include "cpu/task.hh"
#include "fault/fault.hh"
#include "fault/recovery.hh"
#include "fault/watchdog.hh"
#include "mem/backing_store.hh"
#include "mem/directory.hh"
#include "mem/home_queue.hh"
#include "mem/mem_module.hh"
#include "net/mesh.hh"
#include "proto/controller.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "stats/line_profiler.hh"
#include "stats/registry.hh"
#include "stats/sharing_tracker.hh"
#include "stats/stat_set.hh"
#include "stats/timeseries.hh"
#include "trace/trace.hh"
#include "trace/txn.hh"

namespace dsm {

/** Outcome of System::run(). */
struct RunResult
{
    bool completed = false;  ///< all spawned tasks finished
    bool deadlocked = false; ///< events drained with tasks pending
    bool livelocked = false; ///< the forward-progress watchdog tripped
    Tick end_tick = 0;
    std::uint64_t events = 0;
    /**
     * Human-readable failure report when deadlocked or livelocked:
     * which bound tripped (livelock) and every blocked transaction's
     * controller state, with TxnTracer span trees when transaction
     * tracing is on. Empty on success.
     */
    std::string diagnosis;
};

/** The whole simulated multiprocessor. */
class System
{
  public:
    explicit System(const Config &cfg);

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** @name Component access. @{ */
    const Config &cfg() const { return _cfg; }
    EventQueue &eq() { return _eq; }
    Mesh &mesh() { return _mesh; }
    BackingStore &store() { return _store; }
    MemModule &mem(NodeId n) { return _mems[n]; }
    Directory &dir(NodeId n) { return _dirs[n]; }
    Controller &ctrl(NodeId n) { return *_ctrls[n]; }
    Proc &proc(NodeId n) { return *_procs[n]; }
    SharingTracker &sharing() { return _sharing; }
    Rng &rng() { return _rng; }
    int numProcs() const { return _cfg.machine.num_procs; }
    Tick now() const { return _eq.now(); }
    /** @} */

    /** @name Statistics and tracing. @{ */

    /** Mutable protocol statistics of node @p n (the hot-path sink). */
    SysStats &
    stats(NodeId n)
    {
        return _node_stats[static_cast<std::size_t>(n)];
    }

    /** System-wide aggregate: every node's statistics merged. */
    SysStats
    stats() const
    {
        SysStats agg;
        for (const SysStats &s : _node_stats)
            agg.merge(s);
        return agg;
    }

    /** Reset every node's protocol statistics (e.g. after warmup). */
    void
    clearStats()
    {
        for (SysStats &s : _node_stats)
            s = SysStats{};
        // Keep the fault counters in step with the protocol counters
        // they reconcile against (checker::checkFaultAccounting).
        _faults.clearCounters();
        _recovery.clearCounters();
        // Telemetry delta series re-baseline against the zeroed
        // counters and drop recorded windows, so post-clear windows
        // again sum exactly to the post-clear aggregates. The line
        // profiler and link-flit matrix stay cumulative, like the
        // transaction tracer.
        if (_cfg.telemetry.enabled)
            _telemetry.rebaseline();
    }

    /** The hierarchical stats registry (per-node and global entries). */
    StatsRegistry &registry() { return _registry; }
    const StatsRegistry &registry() const { return _registry; }

    /** The protocol event tracer. */
    Tracer &tracer() { return _tracer; }

    /**
     * The transaction tracer (end-to-end per-operation tracing with
     * phase attribution and Table 1 chain validation). Unlike the
     * per-node SysStats, it is *not* reset by clearStats(): chain
     * validation is cumulative over the whole run.
     */
    TxnTracer &txns() { return _txns; }
    const TxnTracer &txns() const { return _txns; }

    // Optional subsystems. Each is a member that is always present,
    // allocates only when its Config predicate holds, and is live
    // exactly then: faults.enabled (faultPlan()),
    // faults.recoveryEnabled() (recoveryState()), watchdog.enabled
    // (watchdogState()), openloop.enabled (admissionState()),
    // serve.enabled (homeQueue(), serveStats()) and telemetry.enabled
    // (telemetryState(), lineProfiler()). Hooks test the predicate,
    // never the subsystem; while it is off, the subsystem does nothing
    // and its counters read zero.

    /**
     * The fault injector. Like the transaction tracer, the plan's RNG
     * stream is not reset by clearStats() (its counters are).
     */
    FaultPlan &faultPlan() { return _faults; }
    const FaultPlan &faultPlan() const { return _faults; }

    /** The livelock watchdog. */
    Watchdog &watchdogState() { return _watchdog; }
    const Watchdog &watchdogState() const { return _watchdog; }

    /**
     * The message-loss recovery layer: requester timers, home dedup and
     * the drop ledger.
     */
    Recovery &recoveryState() { return _recovery; }
    const Recovery &recoveryState() const { return _recovery; }

    /**
     * The open-loop admission queues. Like the transaction tracer, the
     * serving counters are cumulative and not reset by clearStats().
     */
    AdmissionQueues &admissionState() { return _admission; }
    const AdmissionQueues &admissionState() const { return _admission; }

    /**
     * Node @p n's explicit home service queue; the queues exist only
     * while serve.enabled. Home-targeted requests then buffer here (two
     * service classes, combining window) instead of in the memory
     * module's implicit FIFO.
     */
    HomeQueue &
    homeQueue(NodeId n)
    {
        return _home_queues[static_cast<std::size_t>(n)];
    }
    const HomeQueue &
    homeQueue(NodeId n) const
    {
        return _home_queues[static_cast<std::size_t>(n)];
    }

    /** Machine-wide serving-layer counters. */
    ServeStats &serveStats() { return _serve_stats; }
    const ServeStats &serveStats() const { return _serve_stats; }

    /**
     * The time-resolved telemetry sampler. When on, the event queue
     * drives it at every TelemetryConfig::window boundary.
     */
    TimeSeries &telemetryState() { return _telemetry; }
    const TimeSeries &telemetryState() const { return _telemetry; }

    /** The per-line contention profiler (telemetry.enabled). */
    LineProfiler &lineProfiler() { return _line_prof; }
    const LineProfiler &lineProfiler() const { return _line_prof; }

    /**
     * Current credit-backpressure threshold under
     * serve.credit_threshold=auto: recomputed at every telemetry window
     * boundary as twice the mean of the recent per-window home-queue
     * depth samples, floored at 2 — a queue riding at its recent normal
     * is left alone, one spiking past twice normal throttles. Before
     * the first window (or with auto off) it is the configured
     * credit_threshold.
     */
    int adaptiveCreditThreshold() const { return _credit_threshold; }

    /**
     * Finalize sampling (records the residual partial window) and
     * render the full telemetry snapshot — the windowed series, the
     * ranked hot-line table, and the per-directed-link flit matrix —
     * as one JSON object. The payload of the dsm-timeseries-v1 export.
     */
    std::string telemetryJson();

    /** The full registry rendered as nested JSON. */
    std::string statsJson() const { return _registry.toJson(); }

    /** @} */

    /** Home node of the block containing @p a (block-interleaved). */
    NodeId
    homeOf(Addr a) const
    {
        return static_cast<NodeId>((a / BLOCK_BYTES) %
                                   static_cast<Addr>(numProcs()));
    }

    /** True if @p a lies in a registered synchronization block. */
    bool
    isSync(Addr a) const
    {
        return _sync_blocks.count(blockBase(a)) != 0;
    }

    /**
     * Coherence policy applied to accesses to @p a: the configured sync
     * policy for registered sync blocks, INV (the base write-invalidate
     * protocol) for everything else.
     */
    SyncPolicy
    policyOf(Addr a) const
    {
        return isSync(a) ? _cfg.sync.policy : SyncPolicy::INV;
    }

    /** @name Address-space management. @{ */

    /** Allocate ordinary shared memory. */
    Addr alloc(std::size_t bytes, std::size_t align = WORD_BYTES);

    /**
     * Allocate one block-aligned, block-padded synchronization variable
     * and register its block under the configured sync policy.
     * @return the address of the variable's first word.
     */
    Addr allocSync();

    /** allocSync(), placing the block's home at node @p home. */
    Addr allocSyncAt(NodeId home);

    /** alloc(), placing the first block's home at node @p home. */
    Addr allocAt(NodeId home, std::size_t bytes);

    /** Register an existing block as synchronization data. */
    void markSync(Addr a) { _sync_blocks.insert(blockBase(a)); }

    /** Initialize memory contents before (or between) runs. */
    void writeInit(Addr a, Word v) { _store.writeWord(a, v); }

    /**
     * Debug read of the globally most up-to-date value of word @p a:
     * the exclusive owner's cached copy if one exists, else memory.
     * For tests and result extraction only; has no timing effect.
     */
    Word debugRead(Addr a) const;

    /** @} */

    /** @name Thread management. @{ */

    /** Register a workload coroutine; it starts when run() is called. */
    void spawn(Task t);

    /** Number of spawned tasks that have not yet completed. */
    int tasksPending() const;

    /**
     * Run until every spawned task completes, the event queue drains,
     * or @p max_ticks of simulated time elapse.
     */
    RunResult run(Tick max_ticks = 2'000'000'000ULL);

    /** Discard completed tasks (e.g. between measurement phases). */
    void reapTasks();

    /** @} */

    /**
     * Multi-line human-readable summary of the configuration and of
     * every statistics domain: network, memory modules, caches, and
     * protocol counters.
     */
    std::string report() const;

  private:
    /** Periodic reservation clearing (MachineConfig::spurious_resv_period). */
    void scheduleSpuriousInvalidation();

    /** Periodic watchdog age scan (WatchdogConfig::max_txn_age). */
    void scheduleWatchdogScan();

    /** The stats tree every System renders: global and per-node rows. */
    static const StatSchema &statsSchema();

    /** Register the machine-wide telemetry series (telemetry on only). */
    void registerTelemetrySeries();

    /**
     * Re-derive the adaptive credit threshold from the retained
     * serve_queue_depth gauge windows (credit_threshold=auto only).
     * Called at every telemetry window boundary, after sampling, so the
     * just-closed window participates: threshold = max(2, 2 * ceil(mean
     * of retained per-window machine-wide depths)).
     */
    void updateCreditThreshold();

    Config _cfg;
    EventQueue _eq;
    Mesh _mesh;
    BackingStore _store;
    std::vector<MemModule> _mems;
    std::vector<Directory> _dirs;
    std::vector<std::unique_ptr<Controller>> _ctrls;
    std::vector<std::unique_ptr<Proc>> _procs;
    /** Per-node protocol stats; sized once, addresses stable. */
    std::vector<SysStats> _node_stats;
    StatsRegistry _registry;
    Tracer _tracer;
    TxnTracer _txns;
    FaultPlan _faults;
    Watchdog _watchdog;
    Recovery _recovery;
    TimeSeries _telemetry;
    LineProfiler _line_prof;
    AdmissionQueues _admission;
    /** Per-home service queues; sized only when serve.enabled. */
    std::vector<HomeQueue> _home_queues;
    ServeStats _serve_stats;
    /** Live credit threshold (serve.credit_threshold=auto). */
    int _credit_threshold = 0;
    SharingTracker _sharing;
    Rng _rng;

    std::vector<Task> _tasks;
    Addr _next_alloc = BLOCK_BYTES; ///< address 0 reserved

    /** Registered sync blocks (block base addresses). */
    std::unordered_set<Addr> _sync_blocks;
};

} // namespace dsm

#endif // DSM_CPU_SYSTEM_HH
