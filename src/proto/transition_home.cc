/**
 * @file
 * Home-side transitions: the directory protocol and the in-memory
 * execution of atomic primitives (UNC and UPD implementations, and the
 * home-side comparisons of the INVd/INVs compare_and_swap variants).
 *
 * The memory-module queueing that serializes these actions is the
 * driver's job (Controller::homeEnqueue); by the time a transition
 * runs the message has already paid its memory latency.
 */

#include "proto/transition_impl.hh"

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

/** Facts helper for the unforwarded (home-serviced) cases. */
ServiceFacts
homeFacts(std::uint8_t dir_state, int sharers, std::uint64_t fanout_mask)
{
    ServiceFacts f;
    f.dir_state = dir_state;
    f.sharers = sharers;
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

void
sendInvalidations(const Env &env, CtrlState &s, Outcome &o,
                  std::uint64_t targets, const Msg &req)
{
    (void)s;
    for (NodeId n = 0; n < env.numProcs(); ++n) {
        if (!(targets & bit(n)))
            continue;
        ++o.stats.invalidations;
        emitLp(o, EffectKind::LP_INVALIDATION, req.addr);
        Msg inv;
        inv.type = MsgType::INV;
        inv.dst = n;
        inv.requester = req.src;
        inv.addr = req.addr;
        inv.word_addr = req.word_addr;
        inv.chain = chainNext(req.chain, env.self, n);
        inv.txn_id = req.txn_id;
        inv.seq = req.seq;
        emitSend(o, inv);
    }
}

void
homeGetS(const Env &env, CtrlState &s, Outcome &o, const Msg &m)
{
    DirEntry e = env.ctx->dirEntry(m.addr);
    if (e.busy) {
        sendNack(env, s, o, m);
        dirWrite(o, m.addr, e);
        return;
    }
    switch (e.state) {
      case DirState::UNCACHED:
      case DirState::SHARED: {
        emitTxnService(o, m.txn_id,
                       homeFacts(static_cast<std::uint8_t>(e.state),
                                 e.numSharers(), 0));
        setDirState(o, e, m.addr, DirState::SHARED);
        e.addSharer(m.src);
        emitLp(o, EffectKind::LP_SHARER_JOIN, m.addr);
        Msg r;
        r.type = MsgType::DATA_S;
        r.data = env.ctx->memBlock(m.addr);
        r.has_data = true;
        reply(env, s, o, m, r);
        break;
      }
      case DirState::EXCLUSIVE: {
        if (e.owner == m.src) {
            // The owner's write-back is in flight; retry resolves it.
            sendNack(env, s, o, m);
            dirWrite(o, m.addr, e);
            return;
        }
        e.busy = true;
        e.pending_requester = m.src;
        Msg f;
        f.type = MsgType::FWD_GET_S;
        f.dst = e.owner;
        f.requester = m.src;
        f.addr = m.addr;
        f.word_addr = m.word_addr;
        f.chain = chainNext(m.chain, env.self, e.owner);
        f.txn_id = m.txn_id;
        f.seq = m.seq;
        f.attempt = m.attempt;
        emitSend(o, f);
        break;
      }
    }
    dirWrite(o, m.addr, e);
}

void
homeGetX(const Env &env, CtrlState &s, Outcome &o, const Msg &m)
{
    DirEntry e = env.ctx->dirEntry(m.addr);
    if (e.busy) {
        sendNack(env, s, o, m);
        dirWrite(o, m.addr, e);
        return;
    }
    switch (e.state) {
      case DirState::UNCACHED: {
        emitTxnService(o, m.txn_id,
                       homeFacts(static_cast<std::uint8_t>(e.state), 0,
                                 0));
        setDirState(o, e, m.addr, DirState::EXCLUSIVE);
        e.owner = m.src;
        emitLp(o, EffectKind::LP_OWNER, m.addr, m.src);
        Msg r;
        r.type = MsgType::DATA_X;
        r.data = env.ctx->memBlock(m.addr);
        r.has_data = true;
        r.ack_count = 0;
        reply(env, s, o, m, r);
        break;
      }
      case DirState::SHARED: {
        std::uint64_t others = e.sharers & ~bit(m.src);
        emitTxnService(o, m.txn_id,
                       homeFacts(static_cast<std::uint8_t>(e.state),
                                 e.numSharers(), others));
        setDirState(o, e, m.addr, DirState::EXCLUSIVE);
        e.owner = m.src;
        e.sharers = 0;
        emitLp(o, EffectKind::LP_OWNER, m.addr, m.src);
        Msg r;
        r.type = MsgType::DATA_X;
        r.data = env.ctx->memBlock(m.addr);
        r.has_data = true;
        r.ack_count = __builtin_popcountll(others);
        reply(env, s, o, m, r);
        sendInvalidations(env, s, o, others, m);
        break;
      }
      case DirState::EXCLUSIVE: {
        if (e.owner == m.src) {
            sendNack(env, s, o, m);
            dirWrite(o, m.addr, e);
            return;
        }
        e.busy = true;
        e.pending_requester = m.src;
        Msg f;
        f.type = MsgType::FWD_GET_X;
        f.dst = e.owner;
        f.requester = m.src;
        f.addr = m.addr;
        f.word_addr = m.word_addr;
        f.chain = chainNext(m.chain, env.self, e.owner);
        f.txn_id = m.txn_id;
        f.seq = m.seq;
        f.attempt = m.attempt;
        emitSend(o, f);
        break;
      }
    }
    dirWrite(o, m.addr, e);
}

void
homeUpgrade(const Env &env, CtrlState &s, Outcome &o, const Msg &m)
{
    DirEntry e = env.ctx->dirEntry(m.addr);
    if (e.busy || e.state != DirState::SHARED || !e.isSharer(m.src)) {
        // The requester's copy was (or is being) invalidated; it will
        // retry, re-inspect its cache, and fall back to GET_X.
        sendNack(env, s, o, m);
        dirWrite(o, m.addr, e);
        return;
    }
    std::uint64_t others = e.sharers & ~bit(m.src);
    emitTxnService(o, m.txn_id,
                   homeFacts(static_cast<std::uint8_t>(e.state),
                             e.numSharers(), others));
    setDirState(o, e, m.addr, DirState::EXCLUSIVE);
    e.owner = m.src;
    e.sharers = 0;
    emitLp(o, EffectKind::LP_OWNER, m.addr, m.src);
    Msg r;
    r.type = MsgType::UPG_ACK;
    r.ack_count = __builtin_popcountll(others);
    reply(env, s, o, m, r);
    sendInvalidations(env, s, o, others, m);
    dirWrite(o, m.addr, e);
}

void
homeCasHome(const Env &env, CtrlState &s, Outcome &o, const Msg &m)
{
    CasVariant variant = env.cfg->sync.cas_variant;
    dsm_assert(variant != CasVariant::PLAIN,
               "CAS_HOME under the plain INV variant");
    DirEntry e = env.ctx->dirEntry(m.addr);
    if (e.busy) {
        sendNack(env, s, o, m);
        dirWrite(o, m.addr, e);
        return;
    }
    switch (e.state) {
      case DirState::UNCACHED:
      case DirState::SHARED: {
        // Memory holds the most up-to-date copy; compare here.
        std::uint8_t dir_before = static_cast<std::uint8_t>(e.state);
        int sharers_before = e.numSharers();
        Word old = env.ctx->memWord(m.word_addr);
        if (old == m.expected) {
            // Equality: behave like INV; grant an exclusive copy and let
            // the requester perform the swap locally.
            std::uint64_t others =
                e.state == DirState::SHARED ? e.sharers & ~bit(m.src) : 0;
            emitTxnService(o, m.txn_id,
                           homeFacts(dir_before, sharers_before, others));
            setDirState(o, e, m.addr, DirState::EXCLUSIVE);
            e.owner = m.src;
            e.sharers = 0;
            emitLp(o, EffectKind::LP_OWNER, m.addr, m.src);
            Msg r;
            r.type = MsgType::DATA_X;
            r.data = env.ctx->memBlock(m.addr);
            r.has_data = true;
            r.ack_count = __builtin_popcountll(others);
            r.success = true;
            reply(env, s, o, m, r);
            sendInvalidations(env, s, o, others, m);
        } else if (variant == CasVariant::DENY) {
            emitTxnService(o, m.txn_id,
                           homeFacts(dir_before, sharers_before, 0));
            Msg r;
            r.type = MsgType::CAS_FAIL;
            r.result = old;
            reply(env, s, o, m, r);
        } else { // CasVariant::SHARE
            emitTxnService(o, m.txn_id,
                           homeFacts(dir_before, sharers_before, 0));
            setDirState(o, e, m.addr, DirState::SHARED);
            e.addSharer(m.src);
            emitLp(o, EffectKind::LP_SHARER_JOIN, m.addr);
            Msg r;
            r.type = MsgType::CAS_FAIL_S;
            r.result = old;
            r.data = env.ctx->memBlock(m.addr);
            r.has_data = true;
            reply(env, s, o, m, r);
        }
        break;
      }
      case DirState::EXCLUSIVE: {
        if (e.owner == m.src) {
            sendNack(env, s, o, m);
            dirWrite(o, m.addr, e);
            return;
        }
        // The owner has the most up-to-date copy; forward the comparison.
        e.busy = true;
        e.pending_requester = m.src;
        Msg f;
        f.type = MsgType::FWD_CAS;
        f.dst = e.owner;
        f.requester = m.src;
        f.addr = m.addr;
        f.word_addr = m.word_addr;
        f.value = m.value;
        f.expected = m.expected;
        f.chain = chainNext(m.chain, env.self, e.owner);
        f.txn_id = m.txn_id;
        f.seq = m.seq;
        f.attempt = m.attempt;
        emitSend(o, f);
        break;
      }
    }
    dirWrite(o, m.addr, e);
}

void
homeScReq(const Env &env, CtrlState &s, Outcome &o, const Msg &m)
{
    DirEntry e = env.ctx->dirEntry(m.addr);
    if (e.busy) {
        sendNack(env, s, o, m);
        dirWrite(o, m.addr, e);
        return;
    }
    if (e.state == DirState::SHARED && e.isSharer(m.src)) {
        // Success: the requester still holds a valid copy. Grant
        // exclusivity and invalidate the other holders (Section 3).
        std::uint64_t others = e.sharers & ~bit(m.src);
        emitTxnService(o, m.txn_id,
                       homeFacts(static_cast<std::uint8_t>(e.state),
                                 e.numSharers(), others));
        setDirState(o, e, m.addr, DirState::EXCLUSIVE);
        e.owner = m.src;
        e.sharers = 0;
        emitLp(o, EffectKind::LP_OWNER, m.addr, m.src);
        if (e.reservations != 0)
            emitTraceResv(o, m.addr, true);
        e.clearReservations();
        e.bumpSerial();
        Msg r;
        r.type = MsgType::SC_RESP;
        r.success = true;
        r.ack_count = __builtin_popcountll(others);
        reply(env, s, o, m, r);
        sendInvalidations(env, s, o, others, m);
    } else {
        // Exclusive elsewhere or uncached: fail.
        emitTxnService(o, m.txn_id,
                       homeFacts(static_cast<std::uint8_t>(e.state),
                                 e.numSharers(), 0));
        Msg r;
        r.type = MsgType::SC_RESP;
        r.success = false;
        reply(env, s, o, m, r);
    }
    dirWrite(o, m.addr, e);
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

    if (wrote) {
        // Any write or successful SC clears the reservation vector
        // (Section 3) and bumps the block's write serial number.
        if (e.reservations != 0)
            emitTraceResv(o, m.addr, true);
        e.clearReservations();
        e.bumpSerial();
    }
    return {result, success, e.serial};
}

void
homeUncReq(const Env &env, CtrlState &s, Outcome &o, const Msg &m)
{
    DirEntry e = env.ctx->dirEntry(m.addr);
    dsm_assert(e.state == DirState::UNCACHED && !e.busy,
               "UNC access to a block with cached copies");
    emitTxnService(o, m.txn_id,
                   homeFacts(static_cast<std::uint8_t>(e.state), 0, 0));
    MemOpOut out = memoryOp(env, e, o, m);
    Msg r;
    r.type = MsgType::UNC_RESP;
    r.result = out.result;
    r.success = out.success;
    r.serial = out.serial;
    reply(env, s, o, m, r);
    dirWrite(o, m.addr, e);
}

void
homeUpdReq(const Env &env, CtrlState &s, Outcome &o, const Msg &m)
{
    DirEntry e = env.ctx->dirEntry(m.addr);
    dsm_assert(e.state != DirState::EXCLUSIVE && !e.busy,
               "UPD region block is exclusive");
    std::uint8_t dir_before = static_cast<std::uint8_t>(e.state);
    int sharers_before = e.numSharers();
    Word before = readWordAfter(env, o, m.word_addr);
    MemOpOut out = memoryOp(env, e, o, m);
    Word newval = readWordAfter(env, o, m.word_addr);

    int nupdates = 0;
    std::uint64_t upd_mask = 0;
    // "Only successful writes cause updates" (Section 4.3.1): a write
    // that leaves the word unchanged (e.g. a failed test_and_set
    // storing 1 over 1) sends no update messages.
    if (effectiveWrite(m.op, out.success) && newval != before) {
        for (NodeId n = 0; n < env.numProcs(); ++n) {
            if (n == m.src || !e.isSharer(n))
                continue;
            ++o.stats.updates;
            ++nupdates;
            upd_mask |= bit(n);
            Msg u;
            u.type = MsgType::UPDATE;
            u.dst = n;
            u.requester = m.src;
            u.addr = m.addr;
            u.word_addr = m.word_addr;
            u.result = newval;
            u.chain = chainNext(m.chain, env.self, n);
            u.txn_id = m.txn_id;
            u.seq = m.seq;
            emitSend(o, u);
        }
    }
    emitTxnService(o, m.txn_id,
                   homeFacts(dir_before, sharers_before, upd_mask));

    // The requester retains (or obtains) a shared copy.
    setDirState(o, e, m.addr, DirState::SHARED);
    e.addSharer(m.src);
    emitLp(o, EffectKind::LP_SHARER_JOIN, m.addr);

    Msg r;
    r.type = MsgType::UPD_RESP;
    r.result = out.result;
    r.success = out.success;
    r.serial = out.serial;
    r.ack_count = nupdates;
    r.data = readBlockAfter(env, o, m.addr);
    r.has_data = true;
    reply(env, s, o, m, r);
    dirWrite(o, m.addr, e);
}

void
homeWbData(const Env &env, CtrlState &s, Outcome &o, const Msg &m)
{
    DirEntry e = env.ctx->dirEntry(m.addr);
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
        dirWrite(o, m.addr, e);
        return;
    }
    // A forward to the (former) owner is outstanding; it will bounce
    // with FWD_NACK_WB. Remember that the data has arrived.
    e.wb_received = true;
    if (e.await_wb) {
        // The bounce already arrived; finish the transaction now.
        NodeId req = e.pending_requester;
        setDirState(o, e, m.addr, DirState::UNCACHED);
        e.owner = INVALID_NODE;
        e.busy = false;
        e.await_wb = false;
        e.wb_received = false;
        e.pending_requester = INVALID_NODE;
        nackNode(env, s, o, req, m.addr);
    }
    dirWrite(o, m.addr, e);
}

void
homeDropNotify(const Env &env, CtrlState &s, Outcome &o, const Msg &m)
{
    (void)s;
    DirEntry e = env.ctx->dirEntry(m.addr);
    if (e.state == DirState::SHARED && e.isSharer(m.src)) {
        e.removeSharer(m.src);
        if (e.sharers == 0)
            setDirState(o, e, m.addr, DirState::UNCACHED);
    }
    // Otherwise the notification raced with a state change; ignore it.
    dirWrite(o, m.addr, e);
}

void
homeOwnerReply(const Env &env, CtrlState &s, Outcome &o, const Msg &m)
{
    DirEntry e = env.ctx->dirEntry(m.addr);
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

    auto respond = [&](Msg r) {
        r.dst = req;
        r.requester = req;
        r.addr = m.addr;
        r.word_addr = m.word_addr;
        r.chain = chainNext(m.chain, env.self, req);
        r.txn_id = m.txn_id;
        r.seq = m.seq;
        r.attempt = m.attempt;
        if (!s.dedup.empty() && m.seq != 0)
            captureReply(s, req, m.seq, r);
        emitSend(o, r);
    };

    switch (m.type) {
      case MsgType::OWNER_DATA_S: {
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
        // The former owner downgraded in place; only req is new.
        emitLp(o, EffectKind::LP_SHARER_JOIN, m.addr);
        Msg r;
        r.type = MsgType::DATA_S;
        r.data = m.data;
        r.has_data = true;
        respond(r);
        break;
      }
      case MsgType::OWNER_DATA_X: {
        e.owner = req;
        e.busy = false;
        e.pending_requester = INVALID_NODE;
        emitLp(o, EffectKind::LP_OWNER, m.addr, req);
        Msg r;
        r.type = MsgType::DATA_X;
        r.data = m.data;
        r.has_data = true;
        r.ack_count = 0;
        r.success = true;
        respond(r);
        break;
      }
      case MsgType::CAS_OWNER_FAIL: {
        // INVd: the owner keeps its exclusive copy.
        e.busy = false;
        e.pending_requester = INVALID_NODE;
        Msg r;
        r.type = MsgType::CAS_FAIL;
        r.result = m.result;
        respond(r);
        break;
      }
      case MsgType::CAS_OWNER_FAIL_S: {
        // INVs: the owner downgraded; both nodes share the line.
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
        emitLp(o, EffectKind::LP_SHARER_JOIN, m.addr);
        Msg r;
        r.type = MsgType::CAS_FAIL_S;
        r.result = m.result;
        r.data = m.data;
        r.has_data = true;
        respond(r);
        break;
      }
      case MsgType::FWD_NACK_RETRY: {
        e.busy = false;
        e.pending_requester = INVALID_NODE;
        nackNode(env, s, o, req, m.addr);
        break;
      }
      case MsgType::FWD_NACK_WB: {
        if (e.wb_received) {
            setDirState(o, e, m.addr, DirState::UNCACHED);
            e.owner = INVALID_NODE;
            e.busy = false;
            e.wb_received = false;
            e.pending_requester = INVALID_NODE;
            nackNode(env, s, o, req, m.addr);
        } else {
            e.await_wb = true;
        }
        break;
      }
      default:
        dsm_panic("unexpected owner reply %s", toString(m.type));
    }
    dirWrite(o, m.addr, e);
}

} // namespace

Outcome
deliverCombined(const Env &env, CtrlState &s,
                const std::vector<Msg> &batch)
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

    switch (lead.type) {
      case MsgType::GET_S: {
        // k duplicate fills of one block share the single block read;
        // per-member facts/replies mirror sequential delivery exactly
        // (the working entry accumulates sharers between members).
        DirEntry e = env.ctx->dirEntry(lead.addr);
        dsm_assert(!e.busy && e.state != DirState::EXCLUSIVE,
                   "combined GET_S batch on a busy/exclusive line");
        for (const Msg &m : batch) {
            emitTxnService(o, m.txn_id,
                           homeFacts(static_cast<std::uint8_t>(e.state),
                                     e.numSharers(), 0));
            setDirState(o, e, m.addr, DirState::SHARED);
            e.addSharer(m.src);
            emitLp(o, EffectKind::LP_SHARER_JOIN, m.addr);
            Msg r;
            r.type = MsgType::DATA_S;
            r.data = env.ctx->memBlock(m.addr);
            r.has_data = true;
            reply(env, s, o, m, r);
        }
        dirWrite(o, lead.addr, e);
        break;
      }

      case MsgType::UNC_REQ: {
        // k fetch&adds, one read-modify-write pass: memoryOp reads
        // through this outcome's pending writes (readWordAfter), so
        // sequential calls hand each member its exact prefix sum.
        DirEntry e = env.ctx->dirEntry(lead.addr);
        dsm_assert(e.state == DirState::UNCACHED && !e.busy,
                   "UNC access to a block with cached copies");
        for (const Msg &m : batch) {
            emitTxnService(o, m.txn_id,
                           homeFacts(static_cast<std::uint8_t>(e.state),
                                     0, 0));
            MemOpOut out = memoryOp(env, e, o, m);
            Msg r;
            r.type = MsgType::UNC_RESP;
            r.result = out.result;
            r.success = out.success;
            r.serial = out.serial;
            reply(env, s, o, m, r);
        }
        dirWrite(o, lead.addr, e);
        break;
      }

      case MsgType::UPD_REQ: {
        DirEntry e = env.ctx->dirEntry(lead.addr);
        dsm_assert(e.state != DirState::EXCLUSIVE && !e.busy,
                   "UPD region block is exclusive");
        std::uint8_t dir_before = static_cast<std::uint8_t>(e.state);
        int sharers_before = e.numSharers();
        Word before = readWordAfter(env, o, lead.word_addr);
        std::vector<MemOpOut> outs;
        outs.reserve(batch.size());
        for (const Msg &m : batch)
            outs.push_back(memoryOp(env, e, o, m));
        Word newval = readWordAfter(env, o, lead.word_addr);

        // One UPDATE fan-out for the whole batch, carrying the final
        // value, attributed to the leader (its chain/seq/acks). Batch
        // members are excluded: each gets the final block in its own
        // UPD_RESP. FAA is always an effective write, so only the
        // no-op case (adding zero) suppresses the fan-out.
        std::uint64_t member_mask = 0;
        for (const Msg &m : batch)
            member_mask |= bit(m.src);
        int nupdates = 0;
        std::uint64_t upd_mask = 0;
        if (newval != before) {
            for (NodeId n = 0; n < env.numProcs(); ++n) {
                if ((member_mask & bit(n)) != 0 || !e.isSharer(n))
                    continue;
                ++o.stats.updates;
                ++nupdates;
                upd_mask |= bit(n);
                Msg u;
                u.type = MsgType::UPDATE;
                u.dst = n;
                u.requester = lead.src;
                u.addr = lead.addr;
                u.word_addr = lead.word_addr;
                u.result = newval;
                u.chain = chainNext(lead.chain, env.self, n);
                u.txn_id = lead.txn_id;
                u.seq = lead.seq;
                emitSend(o, u);
            }
        }

        for (std::size_t i = 0; i < batch.size(); ++i) {
            const Msg &m = batch[i];
            emitTxnService(o, m.txn_id,
                           homeFacts(dir_before, sharers_before,
                                     i == 0 ? upd_mask : 0));
            setDirState(o, e, m.addr, DirState::SHARED);
            e.addSharer(m.src);
            emitLp(o, EffectKind::LP_SHARER_JOIN, m.addr);
            Msg r;
            r.type = MsgType::UPD_RESP;
            r.result = outs[i].result;
            r.success = outs[i].success;
            r.serial = outs[i].serial;
            r.ack_count = i == 0 ? nupdates : 0;
            r.data = readBlockAfter(env, o, m.addr);
            r.has_data = true;
            reply(env, s, o, m, r);
        }
        dirWrite(o, lead.addr, e);
        break;
      }

      default:
        dsm_panic("deliverCombined on %s", toString(lead.type));
    }
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
    if (ownerReply(m.type)) {
        homeOwnerReply(env, s, o, m);
        return;
    }
    switch (m.type) {
      case MsgType::GET_S:
        homeGetS(env, s, o, m);
        break;
      case MsgType::GET_X:
        homeGetX(env, s, o, m);
        break;
      case MsgType::UPGRADE:
        homeUpgrade(env, s, o, m);
        break;
      case MsgType::CAS_HOME:
        homeCasHome(env, s, o, m);
        break;
      case MsgType::SC_REQ:
        homeScReq(env, s, o, m);
        break;
      case MsgType::UNC_REQ:
        homeUncReq(env, s, o, m);
        break;
      case MsgType::UPD_REQ:
        homeUpdReq(env, s, o, m);
        break;
      case MsgType::WB_DATA:
        homeWbData(env, s, o, m);
        break;
      case MsgType::DROP_NOTIFY:
        homeDropNotify(env, s, o, m);
        break;
      default:
        dsm_panic("non-home message %s at home", toString(m.type));
    }
}

} // namespace detail

} // namespace tf
} // namespace dsm
