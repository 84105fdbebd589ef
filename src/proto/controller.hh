/**
 * @file
 * Per-node coherence/synchronization controller — the event-driven
 * *driver* over the pure transition functions in proto/transition.hh.
 *
 * Each processing node has one Controller that plays three roles
 * (CPU side, home directory side, remote side; see transition_*.cc for
 * the protocol itself). The driver owns everything a pure transition
 * cannot: the event queue, the mesh, the memory-module queue, RNG draws
 * (retry backoff jitter), fault injection, the completion callback, and
 * the Tracer/TxnTracer/LineProfiler/Recovery sinks. A delivered message
 * becomes a tf::deliver() call whose Outcome is then committed: memory
 * and directory writes applied, stat deltas folded in, and effects
 * walked in order (sends scheduled, trace records emitted,
 * completions/retries/timers armed).
 *
 * The protocol is DASH-style: requests to a busy directory entry are
 * NACKed and retried; invalidation acknowledgements are collected by the
 * requester. The serialized-message counts of Table 1 fall out of these
 * flows and are checked by tests/bench via the Msg::chain field.
 */

#ifndef DSM_PROTO_CONTROLLER_HH
#define DSM_PROTO_CONTROLLER_HH

#include <cstdint>
#include <functional>

#include "cache/cache.hh"
#include "net/msg.hh"
#include "proto/transition.hh"
#include "sim/types.hh"

namespace dsm {

class System;

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
    using DoneFn = std::function<void(OpResult)>;

    Controller(System &sys, NodeId id);

    Controller(const Controller &) = delete;
    Controller &operator=(const Controller &) = delete;

    /**
     * Issue a processor operation. Exactly one operation may be
     * outstanding; the processor model enforces this by blocking.
     * @param done Invoked once, at the operation's completion tick.
     */
    void cpuRequest(AtomicOp op, Addr addr, Word value, Word expected,
                    DoneFn done);

    /**
     * Issue-time half of the spin-wait hit path (Proc::spinLoad). When
     * a LOAD of @p addr would hit -- a valid line under INV or UPD,
     * never under UNC -- and no per-op observer is on (fault plan,
     * recovery, transaction tracer, any tracer category), does exactly
     * what cpuRequest() does for that hit: the cache lookup (moving the
     * LRU stamp), the hit count and the transaction reset. Stores the
     * word read in @p value and returns true; the caller then completes
     * the load cache_hit_latency cycles later with finishLoadHit().
     * Otherwise changes nothing and returns false.
     * @param is_sync System::isSync(addr), which selects the policy.
     */
    bool loadHit(Addr addr, bool is_sync, Word *value);

    /** Completion of a loadHit() load: what finishNow() does for it. */
    void finishLoadHit();

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

    /** Network/local message delivery entry point. */
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
     * the completion callback).
     */
    void commit(const tf::Outcome &o);

    /** Complete the active transaction now (COMPLETE effect body). */
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

    /** Stamp src and inject into the mesh. */
    void send(Msg m);
    Tick now() const;

    System &_sys;
    NodeId _id;
    tf::CtrlState _st;

    /** Completion callback of the outstanding operation (driver-only). */
    DoneFn _done;
    /** Tracer flow id of the outstanding operation (driver-only). */
    std::uint32_t _trace_flow = 0;

    /** @name Overload-protection driver state (serve.enabled only). @{ */
    /** A memory service slot is reserved for this home's queue. */
    bool _slot_scheduled = false;
    /** This requester is credit-throttled until this tick. */
    Tick _throttled_until = 0;
    /** Park state of the active transaction (watchdog classification). */
    Tick _park_until = 0;
    ParkKind _park_kind = ParkKind::NONE;
    /** Total parked cycles of the active transaction. */
    Tick _parked_total = 0;
    /** @} */
};

} // namespace dsm

#endif // DSM_PROTO_CONTROLLER_HH
