/**
 * @file
 * End-to-end recovery accounting for message-loss faults.
 *
 * The recovery *mechanisms* live where the protocol lives — requester
 * timers and retransmission in the CPU side of the controller, the
 * dedup/reply-cache in the home side, link quarantine in the mesh.
 * This class is the shared ledger that ties them together: every
 * message the fault injector drops is recorded here and must later be
 * *covered* — either by the requester's retransmission machinery or,
 * when the failing link has been quarantined, attributed to the
 * quarantine event. proto/checker::checkFaultAccounting enforces
 * drops == retransmit_covered + quarantine_covered on quiesced runs,
 * so a silently-lost (unrecoverable) message is a checker violation,
 * not a hang.
 *
 * Cost discipline: every hook tests FaultConfig::recoveryEnabled()
 * before touching the ledger, and the mesh is handed the ledger only
 * when that predicate holds, so fault-free runs pay one branch per
 * hook.
 */

#ifndef DSM_FAULT_RECOVERY_HH
#define DSM_FAULT_RECOVERY_HH

#include <cstdint>
#include <vector>

#include "net/msg.hh"
#include "sim/types.hh"

namespace dsm {

class Mesh;
class System;

class Recovery
{
  public:
    /** Monotonic recovery counters, surfaced as recovery.* stats. */
    struct Counters
    {
        /** @name The drop ledger. @{ */
        std::uint64_t drops = 0;        ///< droppable messages lost
        std::uint64_t req_drops = 0;    ///< ... that were requests
        std::uint64_t reply_drops = 0;  ///< ... that were replies
        /** Drops covered by a requester retransmission (or absorbed as
         *  duplicates the retransmission machinery generated). */
        std::uint64_t retransmit_covered = 0;
        /** Drops on a link that was quarantined by cover time. */
        std::uint64_t quarantine_covered = 0;
        /** @} */

        /** @name Requester side. @{ */
        std::uint64_t retransmits = 0;   ///< timer-driven resends
        std::uint64_t stale_replies = 0; ///< replies dropped by the guard
        std::uint64_t nacks_lost = 0;    ///< NACKs dropped in the mesh
        std::uint64_t nacks_stale = 0;   ///< NACKs dropped by the guard
        /** NACKs re-sent from the home's reply cache (extra sends the
         *  protocol's nacks counter does not see). */
        std::uint64_t nacks_replayed = 0;
        /** @} */

        /** @name Home side (dedup / reply cache). @{ */
        std::uint64_t dup_requests = 0;    ///< duplicates seen at all
        std::uint64_t dup_replayed = 0;    ///< answered from the cache
        std::uint64_t dup_reprocessed = 0; ///< idempotently re-executed
        std::uint64_t dup_in_progress = 0; ///< original still in service
        std::uint64_t dup_stale = 0;       ///< requester has moved on
        /** @} */

        /** Mesh links quarantined (never un-quarantined within a run). */
        std::uint64_t links_quarantined = 0;

        /** @name Faulty-channel ledger (reorder/dup/corrupt axes). @{ */
        /** Injected corruptions caught by the ejection checksum verify
         *  (quiesced: == fault.msg_corruptions — zero escaped). */
        std::uint64_t corrupt_detected = 0;
        /** Injected duplicate deliveries absorbed by an epoch/sequence
         *  guard without re-execution (quiesced: == fault.msg_dups). */
        std::uint64_t dups_absorbed = 0;
        /** Out-of-FIFO deliveries that reached their destination
         *  (quiesced: == fault.msg_reorders — none were lost). */
        std::uint64_t reorders_delivered = 0;
        /** @} */
    };

    /**
     * Arm the ledger. @p sys provides the per-requester "currently
     * awaited seq" (Controller::cpuAwaitedSeq) so drops of already-
     * stale duplicates are covered immediately, and @p mesh provides
     * the link quarantine state used to bucket covered drops.
     */
    void configure(System &sys, Mesh &mesh);

    /**
     * Record a dropped message (called by the mesh). @p from / @p to
     * name the failing link. If the message's requester still awaits
     * this seq the drop stays pending until coverRequester(); otherwise
     * it is duplicate traffic the recovery machinery itself generated
     * and is covered immediately.
     */
    void noteDrop(const Msg &m, NodeId from, NodeId to);

    /**
     * Cover every pending drop charged to requester @p r. Called when
     * the requester retransmits and when it retires its seq (completion
     * or NACK-and-retry — the in-flight duplicates can no longer be
     * told from delivered ones, and the requester has recovered).
     */
    void coverRequester(NodeId r);

    /** Drops recorded but not yet covered (0 on any quiesced run). */
    std::uint64_t pendingDrops() const { return _pending_total; }

    Counters &counters() { return _ctr; }
    const Counters &counters() const { return _ctr; }

    /**
     * Reset the counters (System::clearStats). Pending ledger entries
     * survive — their eventual coverage must stay reconcilable, so the
     * drop total is re-seeded with the carried-over pending count.
     */
    void clearCounters();

  private:
    struct PendingDrop
    {
        std::uint64_t seq = 0;
        NodeId from = INVALID_NODE;
        NodeId to = INVALID_NODE;
        bool was_request = false;
    };

    void cover(const PendingDrop &d);

    System *_sys = nullptr;
    Mesh *_mesh = nullptr;
    /** Pending (uncovered) drops, per requester. */
    std::vector<std::vector<PendingDrop>> _pending;
    std::uint64_t _pending_total = 0;
    Counters _ctr;
};

} // namespace dsm

#endif // DSM_FAULT_RECOVERY_HH
