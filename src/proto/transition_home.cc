/**
 * @file
 * Home-side transitions: the directory protocol and the in-memory
 * execution of atomic primitives (UNC and UPD implementations, and the
 * home-side comparisons of the INVd/INVs compare_and_swap variants).
 *
 * Each directory action behind Table 1's message chains is one
 * function, shared by every flow that takes it: grantShared (a shared
 * copy), grantExclusive (an exclusive copy, invalidating the other
 * sharers), forwardToOwner (the request goes on to the exclusive
 * owner) and sendUpdates (the UPD fan-out after a write at the
 * memory). The per-message bodies work on the caller's copy of the
 * block's directory entry; homeDispatch and deliverCombined read it
 * once and write it back once.
 *
 * The memory-module queueing that serializes these actions is the
 * driver's job (Controller::homeEnqueue); by the time a transition
 * runs the message has already paid its memory latency.
 */

#include "proto/transition_impl.hh"

#include <span>

#include "mem/home_queue.hh"
#include "sim/logging.hh"

namespace dsm {
namespace tf {

using namespace detail;

namespace {

/** Bit mask for one node. */
std::uint64_t
bit(NodeId n)
{
    return 1ULL << n;
}

/** Facts of a request the home serves itself, from entry @p e. */
ServiceFacts
homeFacts(const DirEntry &e, std::uint64_t fanout_mask)
{
    ServiceFacts f;
    f.dir_state = static_cast<std::uint8_t>(e.state);
    f.sharers = e.numSharers();
    f.forwarded = false;
    f.owner = INVALID_NODE;
    f.fanout_mask = fanout_mask;
    return f;
}

/** Record the (possibly unchanged) entry — mirrors Directory::entry()
 *  creating the slot on first touch in the event-driven engine. */
void
dirWrite(Outcome &o, Addr addr, const DirEntry &e)
{
    o.dir_writes.push_back(DirWrite{addr, e});
}

/** The reply of type @p t to @p req carrying the block from memory. */
Msg
dataReply(const Env &env, const Msg &req, MsgType t)
{
    Msg r = replyTo(env, req, t);
    r.data = env.ctx->memBlock(req.addr);
    r.has_data = true;
    return r;
}

/**
 * A write to the block, or a successful store_conditional, clears the
 * reservation vector (Section 3) and bumps the block's write serial
 * number.
 */
void
noteWrite(Outcome &o, DirEntry &e, Addr block)
{
    if (e.reservations != 0)
        emitTraceResv(o, block, true);
    e.clearReservations();
    e.bumpSerial();
}

void
sendInvalidations(const Env &env, Outcome &o, std::uint64_t targets,
                  const Msg &req)
{
    for (NodeId n = 0; n < env.numProcs(); ++n) {
        if (!(targets & bit(n)))
            continue;
        ++o.stats.invalidations;
        emitLp(o, EffectKind::LP_INVALIDATION, req.addr);
        emitSend(o, derive(env, req, MsgType::INV, n, req.src, false));
    }
}

/**
 * Send the word update @p value caused by @p req to every sharer
 * outside @p skip (the requesters, who get the block in their reply).
 * @return the nodes updated.
 */
std::uint64_t
sendUpdates(const Env &env, Outcome &o, const DirEntry &e, const Msg &req,
            std::uint64_t skip, Word value)
{
    std::uint64_t updated = 0;
    for (NodeId n = 0; n < env.numProcs(); ++n) {
        if ((skip & bit(n)) != 0 || !e.isSharer(n))
            continue;
        ++o.stats.updates;
        updated |= bit(n);
        Msg u = derive(env, req, MsgType::UPDATE, n, req.src, false);
        u.result = value;
        emitSend(o, u);
    }
    return updated;
}

/**
 * Give @p m's requester a shared copy and send it @p r. @p facts are
 * the request's service facts (a combined UPD batch reports the entry
 * as it was before the batch for every member).
 */
void
grantShared(CtrlState &s, Outcome &o, DirEntry &e, const Msg &m,
            const ServiceFacts &facts, const Msg &r)
{
    emitTxnService(o, m.txn_id, facts);
    setDirState(o, e, m.addr, DirState::SHARED);
    e.addSharer(m.src);
    emitLp(o, EffectKind::LP_SHARER_JOIN, m.addr);
    reply(s, o, r);
}

/**
 * Give @p m's requester the exclusive copy of an uncached or shared
 * block: send it @p r with the number of invalidation acks to collect,
 * then invalidate the other sharers. A granted store_conditional is a
 * write to the block.
 */
void
grantExclusive(const Env &env, CtrlState &s, Outcome &o, DirEntry &e,
               const Msg &m, Msg r)
{
    dsm_assert(e.state == DirState::SHARED || e.sharers == 0,
               "%s block %#llx has sharers %#llx", toString(e.state),
               static_cast<unsigned long long>(m.addr),
               static_cast<unsigned long long>(e.sharers));
    std::uint64_t others = e.sharers & ~bit(m.src);
    emitTxnService(o, m.txn_id, homeFacts(e, others));
    setDirState(o, e, m.addr, DirState::EXCLUSIVE);
    e.owner = m.src;
    e.sharers = 0;
    emitLp(o, EffectKind::LP_OWNER, m.addr, m.src);
    if (m.type == MsgType::SC_REQ)
        noteWrite(o, e, m.addr);
    r.ack_count = __builtin_popcountll(others);
    reply(s, o, r);
    sendInvalidations(env, o, others, m);
}

/**
 * The exclusive owner holds the current copy: forward @p m to it as
 * @p t and keep the entry busy until the owner answers. A requester
 * that owns the line itself is NACKed instead: its write-back is in
 * flight, and the retry resolves it.
 */
void
forwardToOwner(const Env &env, CtrlState &s, Outcome &o, DirEntry &e,
               const Msg &m, MsgType t)
{
    if (e.owner == m.src) {
        sendNack(env, s, o, m);
        return;
    }
    e.busy = true;
    e.pending_requester = m.src;
    Msg f = derive(env, m, t, e.owner, m.src, true);
    if (t == MsgType::FWD_CAS) {
        f.value = m.value;
        f.expected = m.expected;
    }
    emitSend(o, f);
}

/**
 * The forwarded transfer ended with the line written back: the block is
 * uncached again and the waiting requester is NACKed to retry.
 */
void
endTransferUncached(const Env &env, CtrlState &s, Outcome &o, DirEntry &e,
                    Addr block)
{
    NodeId req = e.pending_requester;
    setDirState(o, e, block, DirState::UNCACHED);
    e.owner = INVALID_NODE;
    e.busy = false;
    e.await_wb = false;
    e.wb_received = false;
    e.pending_requester = INVALID_NODE;
    nackNode(env, s, o, req, block);
}

void
homeGetS(const Env &env, CtrlState &s, Outcome &o, DirEntry &e,
         const Msg &m)
{
    if (e.state == DirState::EXCLUSIVE)
        forwardToOwner(env, s, o, e, m, MsgType::FWD_GET_S);
    else
        grantShared(s, o, e, m, homeFacts(e, 0),
                    dataReply(env, m, MsgType::DATA_S));
}

void
homeGetX(const Env &env, CtrlState &s, Outcome &o, DirEntry &e,
         const Msg &m)
{
    if (e.state == DirState::EXCLUSIVE)
        forwardToOwner(env, s, o, e, m, MsgType::FWD_GET_X);
    else
        grantExclusive(env, s, o, e, m, dataReply(env, m, MsgType::DATA_X));
}

void
homeUpgrade(const Env &env, CtrlState &s, Outcome &o, DirEntry &e,
            const Msg &m)
{
    if (e.state != DirState::SHARED || !e.isSharer(m.src)) {
        // The requester's copy was (or is being) invalidated; it will
        // retry, re-inspect its cache, and fall back to GET_X.
        sendNack(env, s, o, m);
        return;
    }
    grantExclusive(env, s, o, e, m, replyTo(env, m, MsgType::UPG_ACK));
}

void
homeCasHome(const Env &env, CtrlState &s, Outcome &o, DirEntry &e,
            const Msg &m)
{
    CasVariant variant = env.cfg->sync.cas_variant;
    dsm_assert(variant != CasVariant::PLAIN,
               "CAS_HOME under the plain INV variant");
    if (e.state == DirState::EXCLUSIVE) {
        // The owner has the most up-to-date copy; forward the comparison.
        forwardToOwner(env, s, o, e, m, MsgType::FWD_CAS);
        return;
    }
    // Memory holds the most up-to-date copy; compare here.
    Word old = env.ctx->memWord(m.word_addr);
    if (old == m.expected) {
        // Equality: behave like INV; grant an exclusive copy and let
        // the requester perform the swap locally.
        Msg r = dataReply(env, m, MsgType::DATA_X);
        r.success = true;
        grantExclusive(env, s, o, e, m, r);
    } else if (variant == CasVariant::DENY) {
        emitTxnService(o, m.txn_id, homeFacts(e, 0));
        Msg r = replyTo(env, m, MsgType::CAS_FAIL);
        r.result = old;
        reply(s, o, r);
    } else { // CasVariant::SHARE
        Msg r = dataReply(env, m, MsgType::CAS_FAIL_S);
        r.result = old;
        grantShared(s, o, e, m, homeFacts(e, 0), r);
    }
}

void
homeScReq(const Env &env, CtrlState &s, Outcome &o, DirEntry &e,
          const Msg &m)
{
    Msg r = replyTo(env, m, MsgType::SC_RESP);
    if (e.state == DirState::SHARED && e.isSharer(m.src)) {
        // Success: the requester still holds a valid copy. Grant
        // exclusivity and invalidate the other holders (Section 3).
        r.success = true;
        grantExclusive(env, s, o, e, m, r);
    } else {
        // Exclusive elsewhere or uncached: fail.
        emitTxnService(o, m.txn_id, homeFacts(e, 0));
        reply(s, o, r);
    }
}

/** Outcome of a memory-executed operation. */
struct MemOpOut
{
    Word result = 0;
    bool success = true;
    /** Block write serial number after the operation. */
    Word serial = 0;
};

/**
 * Perform an operation on memory at the home (UNC/UPD execution of
 * atomic primitives), maintaining the in-memory reservation vector and
 * the block's write serial number. Memory writes go to @p o; @p e is
 * the caller's working copy of the directory entry.
 */
MemOpOut
memoryOp(const Env &env, DirEntry &e, Outcome &o, const Msg &m)
{
    Word old = readWordAfter(env, o, m.word_addr);
    Word result = old;
    bool success = true;
    bool wrote = false;

    auto writeWord = [&](Word v) {
        MemWrite mw;
        mw.addr = m.word_addr;
        mw.word = v;
        o.mem_writes.push_back(mw);
    };

    switch (m.op) {
      case AtomicOp::LOAD:
      case AtomicOp::LOAD_EXCL:
      case AtomicOp::LLS:
        // Serial-number load_linked needs no reservation: the serial
        // returned alongside the value does the job (Section 3.1).
        break;
      case AtomicOp::LL: {
        int limit = env.cfg->machine.max_memory_reservations;
        if (limit > 0 && !e.hasReservation(m.src) &&
            e.numReservations() >= limit) {
            // Beyond-the-limit: return a failure indicator instead of a
            // reservation (Section 3.1, option 3).
            success = false;
        } else {
            e.setReservation(m.src);
            emitTraceResv(o, m.addr, false);
        }
        break;
      }
      case AtomicOp::STORE:
      case AtomicOp::TAS:
      case AtomicOp::FAA:
      case AtomicOp::FAS:
      case AtomicOp::FAO:
        writeWord(applyOp(m.op, old, m.value));
        wrote = true;
        if (m.op == AtomicOp::STORE)
            result = 0;
        break;
      case AtomicOp::CAS:
        if (old == m.expected) {
            writeWord(m.value);
            wrote = true;
        } else {
            success = false;
        }
        break;
      case AtomicOp::SC:
        result = 0;
        if (e.hasReservation(m.src)) {
            writeWord(m.value);
            wrote = true;
        } else {
            success = false;
        }
        break;
      case AtomicOp::SCS:
        // Serial-number store_conditional, possibly "bare" (with no
        // preceding load_linked): succeeds iff the expected serial
        // matches the block's write counter.
        result = 0;
        if (e.serial == static_cast<std::uint32_t>(m.serial)) {
            writeWord(m.value);
            wrote = true;
        } else {
            success = false;
            result = old; // report the current value on failure
        }
        break;
      default:
        dsm_panic("memoryOp on %s", toString(m.op));
    }

    if (wrote)
        noteWrite(o, e, m.addr);
    return {result, success, e.serial};
}

/** The reply of type @p t to @p req reporting memory operation @p out. */
Msg
memReply(const Env &env, const Msg &req, MsgType t, const MemOpOut &out)
{
    Msg r = replyTo(env, req, t);
    r.result = out.result;
    r.success = out.success;
    r.serial = out.serial;
    return r;
}

void
homeUncReq(const Env &env, CtrlState &s, Outcome &o, DirEntry &e,
           const Msg &m)
{
    dsm_assert(e.state == DirState::UNCACHED && !e.busy,
               "UNC access to a block with cached copies");
    emitTxnService(o, m.txn_id, homeFacts(e, 0));
    MemOpOut out = memoryOp(env, e, o, m);
    reply(s, o, memReply(env, m, MsgType::UNC_RESP, out));
}

/**
 * UPD requests to one word — a single request, or a combined batch of
 * fetch&adds that one read-modify-write pass serves (memoryOp reads
 * through this outcome's pending writes, so each member sees its exact
 * prefix sum). One UPDATE fan-out carries the final value, attributed
 * to the first request (its chain, seq, acks and fan-out facts); every
 * requester gets a shared copy with the final block in its UPD_RESP.
 */
void
homeUpdReq(const Env &env, CtrlState &s, Outcome &o, DirEntry &e,
           std::span<const Msg> reqs)
{
    dsm_assert(e.state != DirState::EXCLUSIVE && !e.busy,
               "UPD region block is exclusive");
    const Msg &lead = reqs.front();
    ServiceFacts facts = homeFacts(e, 0);
    Word before = readWordAfter(env, o, lead.word_addr);
    InlineVec<MemOpOut, 1> outs;
    std::uint64_t requesters = 0;
    for (const Msg &m : reqs) {
        outs.push_back(memoryOp(env, e, o, m));
        requesters |= bit(m.src);
    }
    Word newval = readWordAfter(env, o, lead.word_addr);

    // "Only successful writes cause updates" (Section 4.3.1): a write
    // that leaves the word unchanged (e.g. a failed test_and_set
    // storing 1 over 1, or adding zero) sends no update messages.
    std::uint64_t updated = 0;
    if (effectiveWrite(lead.op, outs.begin()->success) && newval != before)
        updated = sendUpdates(env, o, e, lead, requesters, newval);

    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const Msg &m = reqs[i];
        facts.fanout_mask = i == 0 ? updated : 0;
        Msg r = memReply(env, m, MsgType::UPD_RESP, outs.begin()[i]);
        r.ack_count = __builtin_popcountll(facts.fanout_mask);
        r.data = readBlockAfter(env, o, m.addr);
        r.has_data = true;
        grantShared(s, o, e, m, facts, r);
    }
}

void
homeWbData(const Env &env, CtrlState &s, Outcome &o, DirEntry &e,
           const Msg &m)
{
    dsm_assert(e.state == DirState::EXCLUSIVE && e.owner == m.src,
               "write-back of %#llx from non-owner %d (state %s)",
               static_cast<unsigned long long>(m.addr), m.src,
               toString(e.state));
    MemWrite mw;
    mw.is_block = true;
    mw.addr = m.addr;
    mw.block = m.data;
    o.mem_writes.push_back(mw);
    if (!e.busy) {
        setDirState(o, e, m.addr, DirState::UNCACHED);
        e.owner = INVALID_NODE;
        return;
    }
    // A forward to the (former) owner is outstanding; it will bounce
    // with FWD_NACK_WB. Remember that the data has arrived.
    e.wb_received = true;
    if (e.await_wb) {
        // The bounce already arrived; finish the transaction now.
        endTransferUncached(env, s, o, e, m.addr);
    }
}

void
homeDropNotify(Outcome &o, DirEntry &e, const Msg &m)
{
    if (e.state == DirState::SHARED && e.isSharer(m.src)) {
        e.removeSharer(m.src);
        if (e.sharers == 0)
            setDirState(o, e, m.addr, DirState::UNCACHED);
    }
    // Otherwise the notification raced with a state change; ignore it.
}

void
homeOwnerReply(const Env &env, CtrlState &s, Outcome &o, DirEntry &e,
               const Msg &m)
{
    dsm_assert(e.busy && e.state == DirState::EXCLUSIVE &&
               e.owner == m.src,
               "%s from %d out of protocol", toString(m.type), m.src);
    NodeId req = e.pending_requester;

    // A data-carrying owner reply means the forwarded case was
    // serviced: record the facts for Table 1 validation.
    if (m.type != MsgType::FWD_NACK_RETRY &&
        m.type != MsgType::FWD_NACK_WB) {
        ServiceFacts f;
        f.dir_state = static_cast<std::uint8_t>(DirState::EXCLUSIVE);
        f.sharers = 0;
        f.forwarded = true;
        f.owner = m.src;
        f.fanout_mask = 0;
        emitTxnService(o, m.txn_id, f);
    }

    switch (m.type) {
      case MsgType::OWNER_DATA_S:
      case MsgType::CAS_OWNER_FAIL_S: {
        // The owner downgraded in place (after a GET_S, or an INVs
        // failed compare_and_swap); both nodes share the line.
        MemWrite mw;
        mw.is_block = true;
        mw.addr = m.addr;
        mw.block = m.data;
        o.mem_writes.push_back(mw);
        setDirState(o, e, m.addr, DirState::SHARED);
        e.sharers = bit(m.src) | bit(req);
        e.owner = INVALID_NODE;
        e.busy = false;
        e.pending_requester = INVALID_NODE;
        // Only req is a new sharer.
        emitLp(o, EffectKind::LP_SHARER_JOIN, m.addr);
        bool cas = m.type == MsgType::CAS_OWNER_FAIL_S;
        Msg r = derive(env, m, cas ? MsgType::CAS_FAIL_S : MsgType::DATA_S,
                       req, req, true);
        if (cas)
            r.result = m.result;
        r.data = m.data;
        r.has_data = true;
        reply(s, o, r);
        break;
      }
      case MsgType::OWNER_DATA_X: {
        e.owner = req;
        e.busy = false;
        e.pending_requester = INVALID_NODE;
        emitLp(o, EffectKind::LP_OWNER, m.addr, req);
        Msg r = derive(env, m, MsgType::DATA_X, req, req, true);
        r.data = m.data;
        r.has_data = true;
        r.ack_count = 0;
        r.success = true;
        reply(s, o, r);
        break;
      }
      case MsgType::CAS_OWNER_FAIL: {
        // INVd: the owner keeps its exclusive copy.
        e.busy = false;
        e.pending_requester = INVALID_NODE;
        Msg r = derive(env, m, MsgType::CAS_FAIL, req, req, true);
        r.result = m.result;
        reply(s, o, r);
        break;
      }
      case MsgType::FWD_NACK_RETRY: {
        e.busy = false;
        e.pending_requester = INVALID_NODE;
        nackNode(env, s, o, req, m.addr);
        break;
      }
      case MsgType::FWD_NACK_WB: {
        if (e.wb_received)
            endTransferUncached(env, s, o, e, m.addr);
        else
            e.await_wb = true;
        break;
      }
      default:
        dsm_panic("unexpected owner reply %s", toString(m.type));
    }
}

} // namespace

Outcome
deliverCombined(const Env &env, CtrlState &s, std::span<const Msg> batch)
{
    Outcome o;
    dsm_assert(batch.size() >= 2,
               "a combined batch needs at least two members");
    const Msg &lead = batch.front();
    dsm_assert(env.homeOf(lead.addr) == env.self,
               "combined batch for block %#llx delivered to non-home "
               "node %d",
               static_cast<unsigned long long>(lead.addr), env.self);
    for (std::size_t i = 1; i < batch.size(); ++i)
        dsm_assert(HomeQueue::combinesWith(lead, batch[i]),
                   "batch member %zu does not combine with the leader",
                   i);

    // The members run the single-request bodies on one working entry,
    // so each sees the sharers and memory words its predecessors left.
    DirEntry e = env.ctx->dirEntry(lead.addr);
    switch (lead.type) {
      case MsgType::GET_S:
        // k duplicate fills of one block share the single block read.
        dsm_assert(!e.busy && e.state != DirState::EXCLUSIVE,
                   "combined GET_S batch on a busy/exclusive line");
        for (const Msg &m : batch)
            homeGetS(env, s, o, e, m);
        break;
      case MsgType::UNC_REQ:
        // k fetch&adds, one read-modify-write pass.
        for (const Msg &m : batch)
            homeUncReq(env, s, o, e, m);
        break;
      case MsgType::UPD_REQ:
        homeUpdReq(env, s, o, e, batch);
        break;
      default:
        dsm_panic("deliverCombined on %s", toString(lead.type));
    }
    dirWrite(o, lead.addr, e);
    return o;
}

namespace detail {

void
nackNode(const Env &env, CtrlState &s, Outcome &o, NodeId n, Addr block)
{
    ++o.stats.nacks;
    emitLp(o, EffectKind::LP_NACK, block);
    emitTraceNack(o, n, block, MsgType::NACK);
    Msg r;
    r.type = MsgType::NACK;
    r.dst = n;
    r.requester = n;
    r.addr = block;
    r.word_addr = block;
    r.chain = 1;
    // The waiting requester has exactly one transaction in flight on
    // this block; stamp its id so the NACK closes the right phase.
    r.txn_id = env.ctx->activeTxnId(n);
    if (!s.dedup.empty()) {
        // Stamp the requester's in-progress seq (the forward that
        // bounced here carried it) and cache the NACK so a racing
        // retransmission replays it instead of re-entering the
        // directory.
        r.seq = s.dedup[static_cast<std::size_t>(n)].seq;
        captureReply(s, n, r.seq, r);
    }
    emitSend(o, r);
}

void
homeDispatch(const Env &env, CtrlState &s, Outcome &o, const Msg &m)
{
    dsm_assert(env.homeOf(m.addr) == env.self,
               "%s for block %#llx delivered to non-home node %d",
               toString(m.type), static_cast<unsigned long long>(m.addr),
               env.self);
    DirEntry e = env.ctx->dirEntry(m.addr);
    // While an ownership transfer is in flight, the INV requests are
    // NACKed and retried (UNC and UPD blocks are never busy).
    bool inv_request = recoverableRequest(m.type) &&
                       m.type != MsgType::UNC_REQ &&
                       m.type != MsgType::UPD_REQ;
    if (e.busy && inv_request) {
        sendNack(env, s, o, m);
    } else if (ownerReply(m.type)) {
        homeOwnerReply(env, s, o, e, m);
    } else {
        switch (m.type) {
          case MsgType::GET_S:
            homeGetS(env, s, o, e, m);
            break;
          case MsgType::GET_X:
            homeGetX(env, s, o, e, m);
            break;
          case MsgType::UPGRADE:
            homeUpgrade(env, s, o, e, m);
            break;
          case MsgType::CAS_HOME:
            homeCasHome(env, s, o, e, m);
            break;
          case MsgType::SC_REQ:
            homeScReq(env, s, o, e, m);
            break;
          case MsgType::UNC_REQ:
            homeUncReq(env, s, o, e, m);
            break;
          case MsgType::UPD_REQ:
            homeUpdReq(env, s, o, e, {&m, 1});
            break;
          case MsgType::WB_DATA:
            homeWbData(env, s, o, e, m);
            break;
          case MsgType::DROP_NOTIFY:
            homeDropNotify(o, e, m);
            break;
          default:
            dsm_panic("non-home message %s at home", toString(m.type));
        }
    }
    dirWrite(o, m.addr, e);
}

} // namespace detail

} // namespace tf
} // namespace dsm
