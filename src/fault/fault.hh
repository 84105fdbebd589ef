/**
 * @file
 * Deterministic fault injection: a FaultPlan owns a dedicated RNG
 * stream and decides, at well-defined protocol hook points, whether to
 * perturb the run — jitter a message, drop a reservation, evict a
 * cached block, or NACK a home request an extra round. Every decision
 * is drawn from the plan's own stream, never from the system RNG, so a
 * faulty run is reproducible byte-for-byte at a given seed and the
 * fault-free schedule is untouched by merely constructing a plan.
 */

#ifndef DSM_FAULT_FAULT_HH
#define DSM_FAULT_FAULT_HH

#include <cstdint>
#include <vector>

#include "net/msg.hh"
#include "sim/config.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace dsm {

/**
 * Run-time fault injector configured from Config::faults. Every hook
 * site tests FaultConfig::enabled before calling the plan, and the mesh
 * is handed the plan only when that predicate holds, so a fault-free
 * run pays one branch per site and never touches the stream. Each
 * probability is pre-scaled to parts-per-million so decisions stay in
 * integer arithmetic on the deterministic Rng.
 *
 * Injection sites and their safety arguments:
 *  - Message jitter is added to a network message's head arrival
 *    *before* the ejection-port FIFO reservation, so the per-
 *    destination delivery order the protocol depends on is preserved.
 *    Node-local messages are never jittered.
 *  - Reservation drops and forced evictions happen only at operation
 *    issue time, before the transaction starts, so they model the
 *    architectural events the paper discusses (context switches,
 *    conflict misses) without violating mid-transaction invariants.
 *  - Injected NACKs are confined to the request types that already
 *    carry retry machinery, and are capped per requester to a run of
 *    max_extra_nacks consecutive injections so the injector perturbs
 *    schedules without manufacturing livelock.
 *  - Message drops (fail-stop loss) are confined to the two legs the
 *    recovery layer covers — requests to the home and replies back —
 *    and require FaultConfig::req_timeout, so every loss is recoverable
 *    by retransmission (fault/recovery.hh keeps the ledger).
 *  - Reordering and duplication are confined to the sequence-guarded
 *    message classes (net/msg.hh sequenceGuarded): the epoch/sequence
 *    guards absorb a stale or replayed delivery without re-executing
 *    it, and every other class keeps per-link FIFO reliable delivery.
 *  - Payload corruption is confined to the droppable legs and always
 *    detected: on a hit the injector stamps the message's checksum
 *    before it flips a bit, and the mesh verifies it at ejection,
 *    converting a corruption into a detected drop that the
 *    retransmission ledger already covers.
 */
class FaultPlan
{
  public:
    /** Monotonic injection counters, surfaced as fault.* stats. */
    struct Counters
    {
        std::uint64_t jitter_applied = 0;
        std::uint64_t jitter_cycles = 0;
        std::uint64_t resv_drops = 0;
        std::uint64_t forced_evictions = 0;
        std::uint64_t nacks_injected = 0;
        /** Messages dropped by the random per-message loss draw. */
        std::uint64_t msg_drops = 0;
        /** Messages dropped by an active flaky-link episode. */
        std::uint64_t flaky_drops = 0;
        /** Deliveries injected out of per-dst FIFO order. */
        std::uint64_t msg_reorders = 0;
        /** Injected duplicate (replayed) deliveries. */
        std::uint64_t msg_dups = 0;
        /** Messages whose payload was bit-flipped in flight. */
        std::uint64_t msg_corruptions = 0;
    };

    /** One seeded whole-link loss episode (directed mesh link). */
    struct FlakyEpisode
    {
        NodeId from = INVALID_NODE;
        NodeId to = INVALID_NODE;
        Tick start = 0;
        Tick end = 0;
    };

    /**
     * Arm the plan. A FaultConfig seed of 0 derives the fault stream
     * from @p machine_seed, so sweeping the machine seed perturbs the
     * faults along with the workload. Flaky-link episodes are drawn
     * here, from the front of the fault stream, using @p mc for the
     * mesh geometry.
     */
    void configure(const FaultConfig &cfg, std::uint64_t machine_seed,
                   const MachineConfig &mc);

    /** The seed the RNG stream was actually built from. */
    std::uint64_t resolvedSeed() const { return _seed; }
    const Counters &counters() const { return _ctr; }
    /** Reset injection counters (System::clearStats). */
    void clearCounters() { _ctr = Counters(); }

    /** Extra cycles to add to a network message's arrival (0 = none). */
    Tick messageJitter();
    /** Drop the issuing CPU's reservation? Call only when one is held. */
    bool dropReservation();
    /** Evict the target block before issue? Call only when cached. */
    bool forceEviction();
    /**
     * NACK this home request without service? Tracks the requester's
     * consecutive-injection streak against max_extra_nacks.
     */
    bool injectNack(NodeId requester);

    /** True when any message-loss fault (drop/flaky) is armed. */
    bool lossArmed() const
    {
        return _drop_ppm != 0 || !_episodes.empty();
    }

    /** Whether each faulty-channel axis (reorder/dup/corrupt) is armed. */
    bool reorderArmed() const { return _reorder_ppm != 0; }
    bool dupArmed() const { return _dup_ppm != 0; }
    bool corruptArmed() const { return _corrupt_ppm != 0; }

    /**
     * Deliver this guarded message out of FIFO order? Returns the
     * bounded extra skew to add past the per-dst ejection reservation
     * (1..reorder_max), or 0 for an in-order delivery. Draws from the
     * stream only when the reorder axis is armed, so pre-existing
     * configs see an unchanged fault stream.
     */
    Tick reorderSkew();

    /**
     * Replay this guarded message after delivery? Returns the seeded
     * replay delay (1..dup_delay), or 0 for no duplicate. Draws only
     * when the duplication axis is armed.
     */
    Tick duplicateDelay();

    /**
     * Corrupt this droppable message in flight? On a hit, stamps
     * @p m's checksum, then flips one seeded bit in one seeded
     * protocol-visible field (so the stamp no longer verifies) and
     * returns true. On a miss @p m is left as it was. Draws only when
     * the corruption axis is armed: the chance draw, then the field
     * and the bit on a hit.
     */
    bool corruptMessage(Msg &m);

    /**
     * Drop this droppable message? @p path holds the nodes visited in
     * route order (path[0] = src). Flaky-link episodes are consulted
     * first (link by link, in path order), then the random per-message
     * loss draw; on a drop @p from / @p to name the failing link. The
     * number of fault-stream draws depends only on the path and the
     * episode state at @p now, keeping the stream reproducible.
     */
    bool dropMessage(Tick now, const NodeId *path, int nodes,
                     NodeId &from, NodeId &to);

    /** The seeded flaky-link episodes (for the mesh and diagnoses). */
    const std::vector<FlakyEpisode> &episodes() const { return _episodes; }

    /**
     * Fault-stream position: RNG draws made since configure(). Written
     * into watchdog dumps so a repro can fast-forward the stream, and
     * not reset by clearCounters() (positions are absolute).
     */
    std::uint64_t draws() const { return _draws; }

  private:
    /** One counted draw helper for each Rng use. */
    std::uint64_t draw(std::uint64_t bound);
    bool drawChance(std::uint64_t ppm);

    FaultConfig _cfg;
    std::uint64_t _seed = 0;
    Rng _rng{1};
    std::uint64_t _jitter_ppm = 0;
    std::uint64_t _resv_drop_ppm = 0;
    std::uint64_t _evict_ppm = 0;
    std::uint64_t _nack_ppm = 0;
    std::uint64_t _drop_ppm = 0;
    std::uint64_t _flaky_ppm = 0;
    std::uint64_t _reorder_ppm = 0;
    std::uint64_t _dup_ppm = 0;
    std::uint64_t _corrupt_ppm = 0;
    std::vector<FlakyEpisode> _episodes;
    /** Consecutive injected NACKs per requester, for the cap. */
    std::vector<int> _nack_streak;
    std::uint64_t _draws = 0;
    Counters _ctr;
};

} // namespace dsm

#endif // DSM_FAULT_FAULT_HH
