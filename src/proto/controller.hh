/**
 * @file
 * Per-node coherence/synchronization controller — the event-driven
 * *driver* over the pure transition functions in proto/transition.hh.
 *
 * Each processing node has one Controller that plays three roles
 * (CPU side, home directory side, remote side; see transition_*.cc for
 * the protocol itself). The driver owns everything a pure transition
 * cannot: the event queue, the mesh, the memory-module queue, RNG draws
 * (retry backoff jitter), fault injection, the hand-off of a finished
 * operation to Proc::complete(), and the Tracer/TxnTracer/LineProfiler/
 * Recovery sinks. A delivered message becomes a tf::deliver() call whose
 * Outcome is then committed: memory and directory writes applied, stat
 * deltas folded in, and effects walked in order (sends scheduled, trace
 * records emitted, completions/retries/timers armed).
 *
 * The protocol is DASH-style: requests to a busy directory entry are
 * NACKed and retried; invalidation acknowledgements are collected by the
 * requester. The serialized-message counts of Table 1 fall out of these
 * flows and are checked by tests/bench via the Msg::chain field.
 */

#ifndef DSM_PROTO_CONTROLLER_HH
#define DSM_PROTO_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "mem/home_queue.hh"
#include "net/msg.hh"
#include "proto/transition.hh"
#include "sim/types.hh"

namespace dsm {

class System;
struct SpinGroup;
struct SpinUntil;

/** Result of a completed processor operation. */
struct OpResult
{
    /**
     * For loads and fetch_and_Phi: the value read (the original value).
     * For compare_and_swap: the original value of the destination.
     * For stores and store_conditional: 0.
     */
    Word value = 0;
    /** For compare_and_swap / store_conditional: the verdict. */
    bool success = true;
    /**
     * The block's write serial number (Section 3.1), reported by every
     * memory-executed operation (UNC/UPD policies). Consumed by the
     * serial-number load_linked/store_conditional primitives.
     */
    Word serial = 0;
};

/** One node's cache/directory controller (transition-function driver). */
class Controller : private tf::StepCtx
{
  public:
    Controller(System &sys, NodeId id);

    Controller(const Controller &) = delete;
    Controller &operator=(const Controller &) = delete;

    /**
     * Issue a processor operation. Exactly one operation may be
     * outstanding; the processor model enforces this by blocking. At
     * its completion tick the operation finishes through
     * Proc::complete().
     */
    void cpuRequest(AtomicOp op, Addr addr, Word value, Word expected);

    /**
     * Spin-wait hit path (Proc::spinLoad). When a LOAD of @p addr would
     * hit -- a valid line under INV or UPD, never under UNC -- and no
     * per-op observer is on (fault plan, recovery, transaction tracer,
     * any tracer category), does exactly what cpuRequest() does for
     * that hit: the cache lookup (moving the LRU stamp), the hit count
     * and the transaction reset, and returns true. If @p until accepts
     * the word read, finishNow() with it is scheduled cache_hit_latency
     * cycles later; if it rejects it, the spin-wait parks in a spin
     * group instead (DESIGN §8). Otherwise changes nothing and returns
     * false.
     * @param is_sync System::isSync(addr), which selects the policy.
     */
    bool loadHit(Addr addr, bool is_sync, const SpinUntil &until);

    /**
     * @name Spin-wait parking (DESIGN §8). A parked spin-wait's
     * iterations happen virtually, one per firing of its spin group:
     * each would read the same word from the same line, which its test
     * rejects. Their counts (the processor's issues, the cache's hits
     * and LRU stamps, the LOAD latency samples, txn.start) are brought
     * up to date by settleSpin(), which every reader of them calls
     * first. @{ */

    /** This node's place in a spin group; System links the members. */
    struct SpinLink
    {
        /** The group of its next completion; null unless parked. */
        SpinGroup *group = nullptr;
        /** The next member of the group, in completion order. */
        Controller *next = nullptr;
        /** Its next completion must run for real (touchSpin()). */
        bool touched = false;
    };
    SpinLink &spinLink() { return _spin; }

    /** Count the virtual iterations up to the group's last firing. */
    void settleSpin();

    /**
     * Mark the parked spin-wait touched: its line changed, or another
     * processor wrote its sync word (SharingTracker::recordAccess).
     */
    void touchSpin();

    /**
     * Run the touched member's pending completion for real (its group
     * is firing): settle, unpark, then finishNow() with the word the
     * last iteration read; Proc::complete() re-issues.
     */
    void wakeSpin();
    /** @} */

    /**
     * The request seq this node currently awaits a reply for, or 0
     * when none is outstanding (recovery layer; see fault/recovery.hh).
     */
    std::uint64_t
    cpuAwaitedSeq() const
    {
        return _st.txn.active && _st.txn.waiting ? _st.txn.seq : 0;
    }

    /** @name Overload-protection park state (serve.*). A transaction
     *  deliberately waiting out a contention backoff or a credit
     *  throttle is parked, not livelocked; the Watchdog classifies it
     *  as `throttled` instead of tripping. @{ */
    enum class ParkKind { NONE, BACKOFF, THROTTLED };
    ParkKind cpuParkKind() const { return _park_kind; }
    Tick cpuParkedUntil() const { return _park_until; }
    /** Cycles this transaction has spent deliberately parked. */
    Tick cpuParkedCycles() const { return _parked_total; }
    /** @} */

    /**
     * Network/local message delivery entry point. Every transition this
     * node runs for a delivered message (here, homeService() and
     * homeServiceSlot()) settles a parked spin-wait first: forwards and
     * updates look up other lines of its set, so the LRU stamps must be
     * the hit loop's.
     */
    void handleMsg(const Msg &m);

    /** The node's cache (exposed for tests and debug reads). */
    Cache &cache() { return _st.cache; }
    const Cache &cache() const { return _st.cache; }

    /** The full protocol-visible state (transition-function view). */
    const tf::CtrlState &state() const { return _st; }

    NodeId id() const { return _id; }

  private:
    /** @name tf::StepCtx — the transitions' read-only world view. @{ */
    bool isSync(Addr a) const override;
    DirEntry dirEntry(Addr block) const override;
    Word memWord(Addr a) const override;
    std::array<Word, BLOCK_WORDS> memBlock(Addr block) const override;
    std::uint64_t activeTxnId(NodeId n) const override;
    /** @} */

    /** Per-call environment handed to every transition function. */
    tf::Env env() const;

    /**
     * Commit one transition outcome: apply memory writes, directory
     * writes, and the stat delta (the recovery ledger's share only while
     * faults.recoveryEnabled()), then walk the effects in order: trace
     * records (each gated by its tracer category), line-profiler notes
     * (while telemetry.enabled), transaction-tracer marks, and the
     * driver-owned SEND, COMPLETE, RETRY and ARM_TIMER (scheduling, RNG,
     * finishNow()). The outcome is consumed: each undelayed SEND's
     * message is stamped where it lies and handed to the mesh, so its
     * only further copy is the delivery event's.
     */
    void commit(tf::Outcome &&o);

    /**
     * Complete the active transaction now (COMPLETE effect body, and
     * a loadHit() load): stats, tracer records, then Proc::complete().
     */
    void finishNow(Word value, bool success, Word serial);

    /** RETRY effect body: watchdog/trace/backoff + scheduled redispatch. */
    void driverRetry();

    /** Schedule the loss-recovery retransmission timer (recovery on). */
    void armRecoveryTimer();
    /** Timer body: retransmit if (seq, attempt) is still outstanding. */
    void recoveryTimeout(std::uint64_t seq, int attempt);

    /** Queue a home-targeted message behind the memory module. */
    void homeEnqueue(const Msg &m);
    /** Home service after the memory access: filter, then deliver. */
    void homeService(const Msg &m);
    /**
     * Recovery dedup, then an injected NACK, for a recoverable request
     * at its home service point.
     * @return true when the request was consumed and must not be
     *         delivered.
     */
    bool homeFilter(const Msg &m);

    /** @name Overload-protection serving (serve.enabled). @{ */
    /** Reserve the next memory service slot when work is queued. */
    void homePump();
    /** Slot body: pick a head, form a combining batch, serve it. */
    void homeServiceSlot(Tick when);
    /** Late service marks for a queued request served at @p when. */
    void noteHomeService(const Msg &m, Tick enq, Tick when);
    /** Credit feedback from a reply: enter/extend the throttle. */
    void noteCredit(int qdepth);
    /** @} */

    /** Stamp src (and a reply's queue depth) onto @p m and inject it. */
    void send(Msg &m);
    Tick now() const;

    /** After a transition here: touch a parked spin-wait whose line no
     *  longer holds the word it reads. */
    void noteSpinLine();

    System &_sys;
    NodeId _id;
    tf::CtrlState _st;

    /** Tracer flow id of the outstanding operation (driver-only). */
    std::uint32_t _trace_flow = 0;

    /** @name Overload-protection driver state (serve.enabled only). @{ */
    /** A memory service slot is reserved for this home's queue. */
    bool _slot_scheduled = false;
    /**
     * A slot's combining followers and its batch (leader first), kept
     * between slots so that combining allocates nothing once warm.
     */
    std::vector<HomeQueue::Entry> _followers;
    std::vector<Msg> _batch;
    /** This requester is credit-throttled until this tick. */
    Tick _throttled_until = 0;
    /** Park state of the active transaction (watchdog classification). */
    Tick _park_until = 0;
    ParkKind _park_kind = ParkKind::NONE;
    /** Total parked cycles of the active transaction. */
    Tick _parked_total = 0;
    /** @} */

    /** @name The parked spin-wait (spin-wait parking). @{ */
    SpinLink _spin;
    /** Issue tick of the last iteration counted so far. */
    Tick _spin_issue = 0;
    /** The word address, the line and the word every iteration reads. */
    Addr _spin_addr = 0;
    CacheLine *_spin_line = nullptr;
    Word _spin_value = 0;
    /** A sync word: the sharing tracker knows the reader is parked. */
    bool _spin_sync = false;
    /** @} */
};

} // namespace dsm

#endif // DSM_PROTO_CONTROLLER_HH
