/**
 * @file
 * Central configuration for the simulated machine and for the atomic
 * primitive implementation under study.
 */

#ifndef DSM_SIM_CONFIG_HH
#define DSM_SIM_CONFIG_HH

#include <string>

#include "sim/types.hh"

namespace dsm {

/**
 * Coherence policy applied to atomically accessed (synchronization) data.
 * Ordinary data always uses the base write-invalidate protocol, as in the
 * paper.
 */
enum class SyncPolicy
{
    INV, ///< compute in cache controllers, write-invalidate
    UPD, ///< compute in memory, write-update
    UNC, ///< compute in memory, caching disabled
};

/** Variants of the INV implementation of compare_and_swap (Section 3). */
enum class CasVariant
{
    PLAIN, ///< obtain an exclusive copy, compare locally
    DENY,  ///< INVd: compare at home/owner; on failure grant no copy
    SHARE, ///< INVs: compare at home/owner; on failure grant shared copy
};

/**
 * Which universal primitive the synchronization algorithms are built on.
 * FAP means the native fetch_and_Phi family.
 */
enum class Primitive
{
    FAP,
    LLSC,
    CAS,
};

const char *toString(SyncPolicy p);
const char *toString(CasVariant v);
const char *toString(Primitive p);

/**
 * Configuration of the atomic-primitive implementation under study:
 * the coherence policy for sync data, the CAS flavour, and the auxiliary
 * instructions (Section 3).
 */
struct SyncConfig
{
    SyncPolicy policy = SyncPolicy::INV;
    CasVariant cas_variant = CasVariant::PLAIN;
    /** Use load_exclusive for reads that feed compare_and_swap. */
    bool use_load_exclusive = false;
    /** Issue drop_copy after atomic accesses to sync data. */
    bool use_drop_copy = false;

    /** Short label such as "INV+lx+dc" for report rows. */
    std::string label() const;
};

/** Machine-model parameters (Section 4.1 defaults: 64 nodes, 8x8 mesh). */
struct MachineConfig
{
    /** Number of processing nodes; must be mesh_x * mesh_y and <= 64. */
    int num_procs = 64;
    int mesh_x = 8;
    int mesh_y = 8;

    /** Cache geometry. */
    unsigned cache_sets = 512;
    unsigned cache_ways = 2;

    /** Cycles for a cache hit observed by the processor. */
    Tick cache_hit_latency = 1;
    /** Memory-module (DRAM + directory) service time per request. */
    Tick mem_service_time = 20;
    /** Network per-hop head latency. */
    Tick hop_latency = 2;
    /** Cycles to transfer one flit through an injection/ejection port. */
    Tick flit_latency = 1;
    /** Base delay before a NACKed request is retried. */
    Tick retry_delay = 10;
    /**
     * In-memory load_linked reservation limit (Section 3.1, option 3):
     * at most this many processors may hold reservations on one block;
     * beyond-limit load_linkeds return a failure indicator and their
     * store_conditionals fail locally without network traffic.
     * 0 means unlimited (the full bit-vector option).
     */
    int max_memory_reservations = 0;
    /**
     * Model the spurious reservation invalidations of real processors
     * (Section 2.1: on the MIPS R4000 reservations are invalidated on
     * context switches and TLB exceptions): every this many cycles,
     * every cache's load_linked reservation is cleared. 0 disables.
     * Lock-freedom survives "so long as we always try again".
     */
    Tick spurious_resv_period = 0;
    /** RNG seed for the whole system. */
    std::uint64_t seed = 1;
};

/**
 * Event-tracer configuration. Tracing is off by default; when enabled,
 * the categories mask selects which TraceCat bits are recorded (see
 * trace/trace.hh) and capacity bounds the ring buffer.
 */
struct TraceConfig
{
    bool enabled = false;
    /** Category bitmask applied when enabled (default: everything). */
    std::uint32_t categories = 0xffffffffu;
    /** Ring-buffer capacity in records. */
    std::size_t capacity = 1u << 16;
};

/**
 * Transaction-tracer configuration (trace/txn.hh). Off by default;
 * when enabled every processor-issued operation is traced end to end,
 * with full records kept for the first @c capacity completions.
 */
struct TxnTraceConfig
{
    bool enabled = false;
    /** Completed transaction records kept (aggregation never drops). */
    std::size_t capacity = 1024;
    /**
     * Slowest-transaction exemplar reservoir: keep the K slowest
     * completed transactions (by end-to-end latency, ids break ties)
     * with their full span trees, independent of the record capacity
     * above. They are exported into the Perfetto trace and the tail
     * section of telemetry/BENCH output. 0 disables the reservoir.
     */
    std::size_t exemplar_k = 0;
    /**
     * Per-transaction compact phase records kept for tail-vs-median
     * attribution (stats/attribution.hh): the conditional per-phase
     * histograms over transactions above the p90/p99 cut are computed
     * from these. Completions beyond the cap are counted as
     * tail_dropped but still aggregate normally.
     */
    std::size_t tail_capacity = 1u << 16;
};

/**
 * Time-resolved telemetry configuration (stats/timeseries.hh and
 * stats/line_profiler.hh). Off by default and free when off: the event
 * loop pays one branch per event, every protocol hook one test of
 * @c enabled, and the stats JSON keeps its exact shape. When enabled,
 * the simulator samples windowed deltas of the registered counters
 * every @c window cycles into bounded ring-buffered series, attributes
 * traffic per cache line, and counts flits per directed mesh link.
 */
struct TelemetryConfig
{
    bool enabled = false;
    /** Sampling window in cycles: one sample per series per window. */
    Tick window = 4096;
    /**
     * Ring capacity per series, in windows. When a run outlives the
     * ring, the oldest windows are folded into a per-series evicted
     * sum, so retained + evicted always equals the aggregate.
     */
    std::size_t max_windows = 4096;
};

/**
 * A config group set by a comma-separated key=value spec string
 * (DSM_FAULTS, DSM_OPENLOOP, DSM_SERVE). Each group's keys, preset and
 * ranges are one constant table in sim/config.cc, which parse(),
 * summary() and Config::validate() all read.
 */
template <typename G>
struct SpecGroup
{
    /**
     * Replace the config with @p spec: "0" is off, "1"/"on"/"default"
     * enables the group's preset, and a key=value list enables the
     * group with the keys given. Integers must be whole numbers that
     * fit the member, flags 0 or 1, reals decimal; ranges are left to
     * Config::validate().
     *
     * @return "" on success, otherwise an error naming the key.
     */
    std::string parse(const std::string &spec);

    /** Canonical key=value spec string (inverse of parse). */
    std::string summary() const;
};

/**
 * Open-loop arrival configuration (workloads/openloop.hh). Off by
 * default and free when off: no admission queues are built, no stats
 * registered, and the stats JSON keeps its exact shape. When enabled,
 * a seeded Poisson (optionally bursty) arrival process offers
 * operations to bounded per-node admission queues; each node's
 * processor serves its queue in FIFO order, so latency is measured as
 * *sojourn* time (admission wait + service) against an optional SLO.
 * The arrival streams draw from per-node RNGs derived from the machine
 * seed, preserving the determinism contract: same seed + config =>
 * byte-identical statsJson regardless of --jobs.
 */
struct OpenLoopConfig : SpecGroup<OpenLoopConfig>
{
    bool enabled = false;
    /** Mean arrivals per cycle per processor (offered load). */
    double rate_ppc = 0.0;
    /**
     * Mean operations per arrival event. 1 gives a pure Poisson
     * process; b > 1 draws a uniform batch in [1, 2b-1] (mean b) per
     * event and scales the inter-arrival gap by b, so the offered
     * rate stays rate_ppc while arrivals clump.
     */
    int burst = 1;
    /** Bounded admission-queue depth; arrivals beyond it are shed. */
    int queue_cap = 64;
    /** Sojourn-time SLO in cycles; ops over it count as violations. 0 = off. */
    Tick slo_cycles = 0;
    /** Arrivals offered per processor (the run's stopping criterion). */
    int ops_per_proc = 256;
};

/**
 * Overload-protection configuration (mem/home_queue.hh and the serving
 * hooks in proto/controller.cc). Off by default and free when off: no
 * home queues are built, no stats registered, and the stats JSON keeps
 * its exact shape. When enabled, each of the four mechanisms is
 * independently toggleable for ablation:
 *
 *  - combining: at the home-directory service point, coalesce queued
 *    commutative requests to the same line (fetch&add increments, and
 *    duplicate read-shared fills) into one memory service slot with an
 *    exact per-requester reply fan-out, so a combining home serves k
 *    contended fetch&adds in O(1) slots instead of k.
 *  - backpressure: replies from a home carry its request-queue depth;
 *    a requester seeing depth over credit_threshold enters a throttled
 *    state for a deterministic duration and propagates it to the
 *    open-loop admission queues so shedding happens at the edge.
 *  - priority: requests retried after a NACK (or retransmitted by the
 *    recovery layer) are marked low priority; the home serves a
 *    two-level queue, foreground first, with an aging bound that
 *    promotes any low request waiting >= age_limit cycles (starvation
 *    freedom: a low head is overtaken for at most age_limit cycles).
 *  - nack_backoff: raises the NACK-retry exponential backoff cap from
 *    the built-in 4 doublings to backoff_cap, ending retry livelock at
 *    high processor counts.
 *
 * Determinism contract holds throughout: throttle durations are pure
 * functions of the observed queue depth (no RNG), and the NACK backoff
 * keeps using the machine's seeded stream.
 */
struct ServeConfig : SpecGroup<ServeConfig>
{
    bool enabled = false;
    /** Coalesce commutative same-line requests at the home. */
    bool combining = true;
    /** Largest number of requests folded into one service slot. */
    int combine_limit = 8;
    /** Queue-depth feedback on replies + edge throttling. */
    bool backpressure = true;
    /** Home-queue depth beyond which requesters throttle. */
    int credit_threshold = 8;
    /**
     * Adaptive credit threshold ("credit_threshold=auto"): derive the
     * throttling threshold from the telemetry layer's home-queue-depth
     * series instead of the static value above — the threshold tracks
     * twice the recent per-window mean depth (floored at 2), so
     * sustained load moves the operating point while deviations above
     * the recent norm still throttle. Requires telemetry.enabled;
     * credit_threshold then only names the startup value used before
     * the first sampled window.
     */
    bool credit_auto = false;
    /** Two-level home scheduling: foreground over retry traffic. */
    bool priority = true;
    /** Cycles a low-priority request may wait before promotion. */
    Tick age_limit = 2000;
    /** Capped-exponential contention backoff for NACK retries. */
    bool nack_backoff = true;
    /** Maximum doublings of machine.retry_delay (>= the built-in 4). */
    int backoff_cap = 10;
};

/**
 * Upper bound on FaultConfig::msg_jitter_max: keeps injected delays far
 * below any plausible run deadline so jitter can never masquerade as a
 * hang (the watchdogs must stay able to tell slow from stuck).
 */
constexpr Tick FAULT_JITTER_HORIZON = 1u << 20;

/** @name Fixed model parameters (DESIGN.md §6). No configuration varies
 *  them; an ablation that sweeps one makes it a Config field again,
 *  together with its caller. @{ */
/** Cycles for a cache-array access on the controller side. */
constexpr Tick CACHE_ACCESS_LATENCY = 2;
/** Latency of a node-local (cache <-> local memory) request. */
constexpr Tick LOCAL_LATENCY = 4;
/** Flit width in bytes. */
constexpr unsigned FLIT_BYTES = 8;
/** Header bytes added to every message. */
constexpr unsigned HEADER_BYTES = 8;
/** A NACK retry's delay is multiplied by a random factor in [1, this]. */
constexpr unsigned RETRY_JITTER = 4;
/** Cost of the constant-time ("magic") synthetic barrier. */
constexpr Tick MAGIC_BARRIER_COST = 10;
/** Per-transaction phase-span cap for the Perfetto export. */
constexpr std::size_t TXN_MAX_SPANS = 512;
/** Chain-divergence messages kept for proto/checker reporting. */
constexpr std::size_t TXN_MAX_DIVERGENCES = 16;
/** Rows of the ranked hot-line table in telemetry exports. */
constexpr std::size_t TELEMETRY_HOT_LINES = 16;
/** @} */

/**
 * Deterministic fault-injection configuration (fault/fault.hh). Off by
 * default and free when off (one test of @c enabled per hook, the same
 * discipline as the tracers). When enabled, a dedicated RNG stream
 * — independent of the protocol's backoff stream — draws bounded
 * per-message latency jitter in the mesh, spurious reservation drops
 * and forced evictions at operation issue, and extra NACK rounds at the
 * home directory. Runs are reproducible byte-for-byte at a given
 * (machine seed, fault seed) pair, including under parallel sweeps.
 */
struct FaultConfig : SpecGroup<FaultConfig>
{
    bool enabled = false;
    /**
     * Seed for the fault RNG stream. 0 derives a stream from the
     * machine seed, so per-point seeds in a sweep vary the faults too.
     */
    std::uint64_t seed = 0;
    /** Probability that a network message's arrival is jittered. */
    double msg_jitter_prob = 0.0;
    /** Maximum jitter, in cycles, added to a jittered message. */
    Tick msg_jitter_max = 0;
    /** Probability an op issue drops a valid load_linked reservation. */
    double resv_drop_prob = 0.0;
    /** Probability an op issue first evicts the cached target block. */
    double evict_prob = 0.0;
    /** Probability a NACKable home request gets a spurious NACK. */
    double nack_prob = 0.0;
    /**
     * Per-requester cap on *consecutive* injected NACKs, so injection
     * perturbs schedules without manufacturing livelock. 0 means
     * unbounded (useful only for directed livelock tests).
     */
    int max_extra_nacks = 4;

    /** @name Message-loss faults and the end-to-end recovery layer.
     *
     * Losing a message silently would wedge the protocol, so enabling
     * any loss knob requires req_timeout > 0: the requester-side
     * transaction timer that retransmits unacknowledged requests with
     * capped exponential backoff. Only the two droppable legs — a
     * requester's request to the home and the home's reply back — are
     * ever lost; forwards, invalidations, updates, acknowledgements,
     * and write-backs stay reliable (see Msg::recoverableRequest).
     * @{ */

    /** Probability a droppable message is lost at mesh egress. */
    double msg_drop_prob = 0.0;
    /**
     * Number of "flaky link" episodes: each picks one mesh link (seeded
     * draw) that drops droppable messages with flaky_drop_prob for a
     * seeded duration. 0 disables episodes.
     */
    int flaky_links = 0;
    /** Episode start times are drawn uniformly from [0, flaky_window). */
    Tick flaky_window = 0;
    /** Episode durations are drawn uniformly from [1, flaky_duration]. */
    Tick flaky_duration = 0;
    /** Drop probability on a flaky link while its episode is active. */
    double flaky_drop_prob = 1.0;
    /**
     * Requester-side retransmission timeout in cycles (0 disables the
     * whole recovery layer; must be nonzero when any loss knob is on).
     * Retransmits back off exponentially, capped at 16x this value.
     */
    Tick req_timeout = 0;
    /**
     * Link quarantine: after quarantine_k drops on one link within
     * quarantine_window cycles, the mesh marks the link degraded and
     * reroutes around it via the alternate dimension order. 0 disables.
     */
    int quarantine_k = 0;
    Tick quarantine_window = 0;

    /** @} */

    /** @name Faulty-channel faults: reordering, duplication, corruption.
     *
     * The full faulty-channel model on top of the lossy-FIFO model
     * above. All three axes apply only to the sequence-guarded message
     * classes (droppable requests/replies plus invalidation and update
     * acknowledgements) and all three require the recovery layer
     * (req_timeout > 0): reordered and duplicated deliveries are
     * absorbed by the epoch/sequence guards, and a corrupted message is
     * detected by its checksum at ejection and becomes a loss, closing
     * through the retransmission ledger.
     * @{ */

    /** Probability a guarded message bypasses the per-dst FIFO order. */
    double reorder_prob = 0.0;
    /** Maximum ejection skew, in cycles, of a reordered message. */
    Tick reorder_max = 0;
    /** Probability a delivered guarded message is replayed later. */
    double dup_prob = 0.0;
    /** Maximum delay, in cycles, before the replayed copy arrives. */
    Tick dup_delay = 64;
    /** Probability a droppable message is corrupted in flight. */
    double corrupt_prob = 0.0;
    /**
     * Age bound on load_linked reservations, in cycles (0 = unbounded):
     * a store_conditional finding its reservation older than this fails
     * locally, so a reordered stale reply can never resurrect a dead
     * reservation.
     */
    Tick resv_max_age = 0;

    /** @} */

    /** True when any message-loss knob is armed (recovery required). */
    bool lossEnabled() const
    {
        return enabled && (msg_drop_prob > 0.0 || flaky_links > 0);
    }

    /** True when any faulty-channel axis is armed (recovery required). */
    bool chaosEnabled() const
    {
        return enabled && (reorder_prob > 0.0 || dup_prob > 0.0 ||
                           corrupt_prob > 0.0);
    }

    /** True when the end-to-end recovery layer is armed. */
    bool recoveryEnabled() const { return enabled && req_timeout > 0; }

    /**
     * True when reordering can break the per-destination FIFO delivery
     * the directory's INV/UPDATE-before-fill ordering otherwise relies
     * on; arms the requester-side fill-race tracking (TxnState::
     * fill_raced). The model checker sets reorder_prob to 1 when its
     * reorder budget is nonzero so the pure transitions see the same
     * predicate.
     */
    bool reorderPossible() const { return enabled && reorder_prob > 0.0; }
};

/**
 * Read $DSM_FAULTS into a FaultConfig. Unset or empty leaves it
 * disabled, like "0"; a bad spec is a fatal user error.
 */
FaultConfig faultConfigFromEnv();

/**
 * Forward-progress watchdog configuration (fault/watchdog.hh). Off by
 * default. When enabled, a transaction exceeding the retry bound or the
 * simulated-cycle age bound trips the watchdog: System::run() stops,
 * reports livelocked, and attaches a diagnosis naming the stuck
 * transaction (with its TxnTracer span tree when transaction tracing
 * is on). Deadlock detection — event queue drained while tasks remain
 * blocked — is always on and needs no configuration.
 */
struct WatchdogConfig
{
    bool enabled = false;
    /** Trip when any transaction exceeds this many retries. 0 = off. */
    int max_retries = 0;
    /** Trip when any transaction is older than this, in cycles. 0 = off. */
    Tick max_txn_age = 0;
    /** Period of the age-scan event (only used when max_txn_age > 0). */
    Tick scan_period = 10000;
};

/**
 * Model-checker configuration (mc/explorer.hh). Controls the shape of
 * the closed system the exhaustive explorer enumerates. The bounds are
 * deliberately tight: exhaustive interleaving enumeration is
 * exponential, so only genuinely small configurations terminate.
 * Config::validate() rejects anything outside them with a descriptive
 * error; the simulator itself ignores this block entirely.
 */
struct McConfig
{
    /** Processing nodes in the model-checked system (2 or 3). */
    int nodes = 2;
    /** Universal primitive each processor's fetch&add program uses. */
    Primitive primitive = Primitive::FAP;
    /** Synchronization cache lines explored (exactly 1 for now). */
    int lines = 1;
    /** Atomic operations each processor's program issues (1..4). */
    int ops_per_proc = 1;
    /**
     * How many messages one exploration may lose: 0 explores the
     * fault-free protocol, 1 additionally branches on dropping each
     * droppable message once (exercising dedup + retransmission).
     */
    int loss_budget = 0;
    /**
     * How many guarded messages one exploration may deliver out of
     * per-channel FIFO order (a REORDER transition delivers a
     * non-head channel message). Arms the recovery layer like
     * loss_budget.
     */
    int reorder_budget = 0;
    /**
     * How many guarded messages one exploration may duplicate (a
     * DUPLICATE transition delivers a replay-flagged copy of a channel
     * head without consuming it). Arms the recovery layer like
     * loss_budget.
     */
    int dup_budget = 0;
    /**
     * Abort an exploration that exceeds this many distinct canonical
     * states (a state-space-explosion fuse, not a correctness knob).
     */
    std::uint64_t max_states = 5'000'000;
    /**
     * Model home-node combining: add a COMBINE transition that folds
     * the combinable heads of the home's request channels into one
     * atomic delivery (tf::deliverCombined), proving no reply is lost
     * or duplicated when a combined batch interleaves with the rest of
     * the protocol. FAP only (the only primitive whose home requests
     * commute).
     */
    bool combining = false;
};

/**
 * Parse all of @p s as a positive decimal integer of type T (int or
 * std::uint64_t), the way spec integers parse: a sign, a fraction, an
 * exponent, hex, spaces and overflow all fail, and so does 0. On
 * failure dsm_fatal("<what>, got '<s>'").
 */
template <typename T>
T parsePositive(const char *s, const char *what);

/** True when environment variable @p name is set, non-empty and not "0". */
bool envFlag(const char *name);

/** Complete simulation configuration. */
struct Config
{
    MachineConfig machine;
    SyncConfig sync;
    TraceConfig trace;
    TxnTraceConfig txn_trace;
    TelemetryConfig telemetry;
    OpenLoopConfig openloop;
    ServeConfig serve;
    FaultConfig faults;
    WatchdogConfig watchdog;
    McConfig mc;

    /**
     * Check the whole configuration for user error: machine shape
     * (num_procs == mesh_x * mesh_y, num_procs <= 64), cache geometry,
     * nonzero latencies, and tracing parameters. System construction
     * calls this and refuses (dsm_fatal) on the first problem found.
     *
     * @return "" if the configuration is valid, otherwise one
     *         descriptive error message.
     */
    std::string validate() const;
};

} // namespace dsm

#endif // DSM_SIM_CONFIG_HH
