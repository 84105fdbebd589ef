/**
 * @file
 * Pure transition-function API for the coherence/synchronization
 * protocol (the api_redesign behind the model checker).
 *
 * The paper's three controller roles (CPU side, home directory side,
 * remote/network side) are expressed as *pure* guarded-action
 * transitions over an explicit controller state:
 *
 *     Outcome step(env, state, msg)   // canonical, copies the state
 *
 * plus in-place variants used by the simulator driver and the model
 * checker, which mutate a caller-owned CtrlState and return only the
 * Outcome. An Outcome carries everything a transition wants done to
 * the world — memory and directory writes, outbound messages, stat
 * deltas, trace/transaction-tracer records, completion/retry/timer
 * requests — as *data*. Nothing in this module touches the event
 * queue, the mesh, the tracer, RNGs, or global state; given the same
 * (env, state, msg) a transition always produces the same outcome.
 *
 * Consumers:
 *  - Controller (proto/controller.{hh,cc}) is the event-driven driver:
 *    it feeds delivered messages to deliver()/tryDedup(), then commits
 *    the outcome (applies writes, schedules sends and completions,
 *    records into the Tracer, TxnTracer, LineProfiler and recovery
 *    ledger). Issue-time fault injection and all RNG draws (retry
 *    backoff jitter) stay in the driver.
 *  - The model checker (mc/explorer.{hh,cc}) drives the same
 *    transitions over explicit message-interleaving choices, with
 *    outcome effects applied to its own world state.
 */

#ifndef DSM_PROTO_TRANSITION_HH
#define DSM_PROTO_TRANSITION_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "mem/directory.hh"
#include "net/msg.hh"
#include "sim/config.hh"
#include "sim/inline_vec.hh"
#include "sim/types.hh"

namespace dsm {
namespace tf {

/**
 * State of a node's single outstanding CPU-side transaction.
 * Everything the protocol needs to decide its next move lives here;
 * driver-only bookkeeping (the tracer flow id, the hand-off of the
 * finished operation to Proc::complete) stays in the driver.
 */
struct TxnState
{
    bool active = false;
    AtomicOp op = AtomicOp::LOAD;
    Addr addr = 0;      ///< word address of the operand
    Word value = 0;     ///< operand / new value
    Word expected = 0;  ///< CAS expected value
    Tick start = 0;     ///< issue tick (latency accounting)

    bool waiting = false;    ///< a network request is outstanding
    bool resp_seen = false;  ///< primary response arrived
    int acks_needed = 0;
    int acks_got = 0;
    Word resp_value = 0;
    bool resp_success = false;
    Word resp_serial = 0;
    int max_chain = 0;       ///< longest serialized message chain
    int retries = 0;
    std::uint64_t txn_id = 0;     ///< transaction-tracer id (0 = off)

    /** @name Recovery layer (meaningful only when it is armed). @{ */
    std::uint64_t seq = 0;   ///< seq of the outstanding request
    int attempt = 1;         ///< retransmission attempt for seq
    MsgType req_type = MsgType::NACK; ///< outstanding request type
    /**
     * Bitmask of sharer nodes whose INV_ACK/UPDATE_ACK for the current
     * seq was already counted, so a duplicated or reordered ack is
     * absorbed instead of double-counted (num_procs <= 64 by the mesh
     * geometry). Cleared with each new request.
     */
    std::uint64_t acks_mask = 0;
    /**
     * Fill-race marker (armed only when reordering can break the
     * per-destination FIFO, see FaultConfig::reorderPossible): a
     * third-party INV or UPDATE for the block this node's outstanding
     * fill targets arrived before the fill itself. The install must
     * then complete the operation with the granted data but silently
     * drop the copy — the directory's view of it has already moved
     * past the grant. 0 = no race; reset with each new request.
     */
    std::uint8_t fill_raced = 0;
    /** @} */
};

/**
 * Home-side recovery state for one requester: the highest request seq
 * seen and, once sent, a copy of its reply (see fault/recovery.hh).
 */
struct DedupEntry
{
    std::uint64_t seq = 0;
    bool has_reply = false;
    Msg reply;
};

/**
 * The complete protocol-visible state of one node's controller. The
 * node's slice of the directory and of memory is *not* part of this
 * state — transitions read them through the Env and write them through
 * Outcome records, so one CtrlState per node plus a directory/memory
 * map is a full system configuration (what the model checker hashes).
 */
struct CtrlState
{
    Cache cache;
    TxnState txn;
    /** Next request seq for this node (recovery layer; 0 = unused). */
    std::uint64_t next_seq = 0;
    /** Per-requester dedup table; empty when the recovery layer is off. */
    std::vector<DedupEntry> dedup;
    /**
     * Set when an in-memory load_linked was denied a reservation
     * (limited-reservation option, Section 3.1): the matching
     * store_conditional fails locally without network traffic.
     */
    bool resv_denied = false;
    Addr resv_denied_block = 0;

    CtrlState(int sets, int ways) : cache(sets, ways) {}
};

/**
 * Read-only view of the world surrounding one controller. The driver
 * implements it over System; the model checker over its world state.
 * dirEntry() returns a *copy* (a default-constructed entry when the
 * block has no entry yet) — transitions never mutate the directory
 * directly.
 */
class StepCtx
{
  public:
    virtual ~StepCtx() = default;
    virtual bool isSync(Addr a) const = 0;
    virtual DirEntry dirEntry(Addr block) const = 0;
    virtual Word memWord(Addr a) const = 0;
    virtual std::array<Word, BLOCK_WORDS> memBlock(Addr block) const = 0;
    /** Transaction-tracer id of @p n's active txn (0 = none/off). */
    virtual std::uint64_t activeTxnId(NodeId n) const = 0;
};

/** Per-call environment: configuration, identity, and the world view. */
struct Env
{
    const Config *cfg = nullptr;
    NodeId self = INVALID_NODE;
    const StepCtx *ctx = nullptr;

    int numProcs() const { return cfg->machine.num_procs; }
    NodeId homeOf(Addr a) const { return dsm::homeOf(a, numProcs()); }
    SyncPolicy policyOf(Addr a) const
    {
        return ctx->isSync(a) ? cfg->sync.policy : SyncPolicy::INV;
    }
    bool recoveryOn() const { return cfg->faults.recoveryEnabled(); }
};

/** What an outcome effect asks the driver to do. */
enum class EffectKind : std::uint8_t
{
    SEND,            ///< send msg (src stamped by driver) after delay
    TRACE_LINE,      ///< cache line state transition addr: a -> b
    TRACE_DIR,       ///< directory transition addr: a -> b (+ counter)
    TRACE_RESV,      ///< reservation set (a=0) / clear (a=1) at addr
    TRACE_NACK,      ///< NACK aimed at node for addr (a = req MsgType)
    LP_NACK,         ///< line profiler: NACK on addr
    LP_OWNER,        ///< line profiler: node became owner of addr
    LP_SHARER_JOIN,  ///< line profiler: a sharer joined addr
    LP_INVALIDATION, ///< line profiler: invalidation sent for addr
    TXN_MARK,        ///< txn tracer mark(id, phase, now+delay, node)
    TXN_SERVICE,     ///< txn tracer service facts for id
    COMPLETE,        ///< finish the CPU op (value/flag/serial) after delay
    RETRY,           ///< schedule a NACK retry (driver draws the backoff)
    ARM_TIMER,       ///< arm the loss-recovery retransmission timer
};

/** Directory-service facts for Table 1 chain validation. */
struct ServiceFacts
{
    std::uint8_t dir_state = 0;
    int sharers = 0;
    bool forwarded = false;
    NodeId owner = INVALID_NODE;
    std::uint64_t fanout_mask = 0;
};

/**
 * One ordered side-effect request. Effects must be committed in order:
 * transitions interleave sends and trace records exactly as the
 * event-driven protocol engine did (e.g. a victim write-back message
 * precedes the installed line's LINE_STATE record). A SEND's message
 * and a TXN_SERVICE's facts do not fit in an effect: they live in the
 * Outcome's sends and services lists, and the effect names its entry
 * by slot (Outcome::msg(), Outcome::facts()).
 */
struct Effect
{
    EffectKind kind = EffectKind::SEND;
    std::uint8_t a = 0;          ///< from-state / phase / req type
    std::uint8_t b = 0;          ///< to-state
    bool flag = false;           ///< COMPLETE success
    NodeId node = INVALID_NODE;  ///< trace peer / mark node / new owner
    std::uint32_t slot = 0;      ///< SEND/TXN_SERVICE payload index
    Tick delay = 0;              ///< SEND/COMPLETE/TXN_MARK tick offset
    Addr addr = 0;               ///< trace/profiler block address
    std::uint64_t id = 0;        ///< txn tracer id
    Word value = 0;              ///< COMPLETE value
    Word serial = 0;             ///< COMPLETE serial
};

static_assert(sizeof(Effect) <= 64, "an effect fits one cache line");

/** Aggregate (order-insensitive) stat increments for one transition. */
struct StatDelta
{
    std::uint32_t nacks = 0;
    std::uint32_t retries = 0;
    std::uint32_t invalidations = 0;
    std::uint32_t updates = 0;
    std::uint32_t writebacks = 0;
    std::uint32_t drop_notifies = 0;
    std::uint32_t sc_local_failures = 0;

    /** @name Recovery ledger counters (fault/recovery.hh). @{ */
    std::uint32_t dup_requests = 0;
    std::uint32_t dup_stale = 0;
    std::uint32_t dup_in_progress = 0;
    std::uint32_t dup_reprocessed = 0;
    std::uint32_t dup_replayed = 0;
    std::uint32_t nacks_replayed = 0;
    std::uint32_t nacks_stale = 0;
    std::uint32_t stale_replies = 0;
    /** Injection-flagged (replayed) duplicates absorbed by a guard —
     *  counted here instead of the organic stale counters so the
     *  NACK-balance invariant survives duplication faults. */
    std::uint32_t dups_absorbed = 0;
    /** @} */
};

/** A directory entry replacement at the home node running the step. */
struct DirWrite
{
    Addr addr = 0;
    DirEntry entry;
};

/** A backing-store write at the home node running the step. */
struct MemWrite
{
    bool is_block = false;
    Addr addr = 0; ///< word address, or block base when is_block
    Word word = 0;
    std::array<Word, BLOCK_WORDS> block{};
};

/**
 * Everything one transition wants done to the world, as data. The
 * driver commits mem_writes, then dir_writes, then the stat delta,
 * then walks effects in order, reading each SEND's message through
 * msg() and each TXN_SERVICE's facts through facts().
 *
 * The inline capacities cover nearly every transition, so building an
 * outcome allocates nothing: at most one directory write per
 * transition, more than one memory write only in a combined serve
 * batch, and more than four effects or two messages only for
 * invalidation or update fan-outs to several sharers (0.65-2.1% of
 * outcomes on the benchmark workloads; see EXPERIMENTS.md "Simulator
 * performance"). TXN_SERVICE records exist only under transaction
 * tracing.
 */
struct Outcome
{
    InlineVec<MemWrite, 1> mem_writes;
    InlineVec<DirWrite, 1> dir_writes;
    StatDelta stats;
    InlineVec<Effect, 4> effects;
    /** SEND payloads (src unset), one per SEND effect, in effect order. */
    InlineVec<Msg, 2> sends;
    /** TXN_SERVICE payloads, one per TXN_SERVICE effect, in order. */
    InlineVec<ServiceFacts, 1> services;

    /** The message SEND effect @p ef sends. */
    const Msg &msg(const Effect &ef) const { return sends[ef.slot]; }
    Msg &msg(const Effect &ef) { return sends[ef.slot]; }
    /** The directory-service facts TXN_SERVICE effect @p ef records. */
    const ServiceFacts &
    facts(const Effect &ef) const
    {
        return services[ef.slot];
    }
};

/** A processor operation to issue (driver-owned context pre-resolved). */
struct OpReq
{
    AtomicOp op = AtomicOp::LOAD;
    Addr addr = 0;
    Word value = 0;
    Word expected = 0;
    std::uint64_t txn_id = 0; ///< transaction-tracer id (0 = off)
    Tick start = 0;           ///< issue tick
};

/** @name In-place transition functions.
 *
 * Each mutates @p s (the node's own controller state — cache contents,
 * txn fields, dedup slots) and returns the Outcome describing every
 * *external* effect. Directory and memory are never mutated in place.
 * @{ */

/** Issue a processor operation (the CPU-side guard set). */
Outcome issue(const Env &env, CtrlState &s, const OpReq &req);

/** (Re)dispatch the active transaction from current cache state. */
Outcome dispatch(const Env &env, CtrlState &s);

/**
 * Deliver a message to this node (any of the three roles). For
 * home-targeted messages this is the post-memory-queue directory
 * action; the driver's memory-module queueing and fault injection
 * happen outside. Recovery dedup is *not* applied here — call
 * tryDedup() first (the split keeps the driver's fault-RNG draw
 * ordering identical to the event-driven engine's).
 */
Outcome deliver(const Env &env, CtrlState &s, const Msg &m);

/**
 * Deliver a *combined batch* of commutative home requests in one
 * memory service slot (serve.combining). All members must target this
 * home, combine with batch[0] (HomeQueue::combinesWith: FAA fetch&adds
 * to one word via UNC_REQ/UPD_REQ, or duplicate GET_S fills of one
 * block), and carry distinct sources. Produces exactly one reply per
 * member — fetch&adds observe consecutive prefix sums of a single
 * read-modify-write pass, and a combined UPD batch sends one UPDATE
 * fan-out (attributed to the leader) carrying the final value. The
 * caller runs tryDedup() per member first, exactly as for deliver().
 */
Outcome deliverCombined(const Env &env, CtrlState &s,
                        std::span<const Msg> batch);

/**
 * The dedup gate: true when home-side recovery dedup applies to @p m
 * at a node in state @p s, i.e. @p m is a recoverable request carrying
 * a seq and the node keeps dedup slots (the recovery layer is armed).
 * Every caller of tryDedup() tests it first.
 */
inline bool
dedupApplies(const CtrlState &s, const Msg &m)
{
    return recoverableRequest(m.type) && m.seq != 0 && !s.dedup.empty();
}

/**
 * Home-side recovery dedup, run before any directory action on a
 * request that passes dedupApplies(). Appends its effects/stat deltas
 * to @p o.
 * @return true when the message was fully handled (stale or
 *         in-progress duplicate dropped, or a cached reply replayed)
 *         and deliver() must not run.
 */
bool tryDedup(const Env &env, CtrlState &s, const Msg &m, Outcome &o);

/** Timeout retransmission of the outstanding request (guards already
 *  checked by the driver): bumps attempt, resends, re-arms the timer. */
Outcome retransmit(const Env &env, CtrlState &s);

/** Home-side injected NACK for a retryable request (fault campaign). */
Outcome injectNack(const Env &env, CtrlState &s, const Msg &m);

/** @} */

/** Canonical pure step: successor state + outcome for one delivery. */
struct StepResult
{
    CtrlState next;
    Outcome out;
};

/**
 * The canonical pure transition over a *const* state: copies @p s,
 * applies recovery dedup (when armed and applicable) and delivery,
 * and returns the successor state plus the outcome. Calling it twice
 * on the same (state, msg) yields identical results — asserted by
 * tests/test_transition.cc.
 */
StepResult step(const Env &env, const CtrlState &s, const Msg &m);

/** @name Deterministic debug serialization (purity tests, MC dumps). @{ */
std::string debugString(const CtrlState &s);
std::string debugString(const Outcome &o);
std::string debugString(const Msg &m);
/** @} */

} // namespace tf
} // namespace dsm

#endif // DSM_PROTO_TRANSITION_HH
