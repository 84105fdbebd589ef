/**
 * @file
 * Transition-function core: shared emitters, message dispatch, the
 * recovery dedup preamble, the canonical pure step() wrapper, and
 * deterministic debug serialization.
 */

#include "proto/transition_impl.hh"

#include <cstdarg>
#include <cstdio>

#include "sim/logging.hh"

namespace dsm {
namespace tf {

namespace detail {

void
emitSend(Outcome &o, const Msg &m, Tick delay)
{
    Effect ef;
    ef.kind = EffectKind::SEND;
    ef.slot = static_cast<std::uint32_t>(o.sends.size());
    ef.delay = delay;
    o.sends.push_back(m);
    o.effects.push_back(ef);
}

void
emitTraceLine(Outcome &o, Addr block, LineState from, LineState to)
{
    if (from == to)
        return;
    Effect ef;
    ef.kind = EffectKind::TRACE_LINE;
    ef.addr = block;
    ef.a = static_cast<std::uint8_t>(from);
    ef.b = static_cast<std::uint8_t>(to);
    o.effects.push_back(ef);
}

void
emitTraceResv(Outcome &o, Addr block, bool clear)
{
    Effect ef;
    ef.kind = EffectKind::TRACE_RESV;
    ef.addr = block;
    ef.a = clear ? 1 : 0;
    o.effects.push_back(ef);
}

void
emitTraceNack(Outcome &o, NodeId victim, Addr block, MsgType req_type)
{
    Effect ef;
    ef.kind = EffectKind::TRACE_NACK;
    ef.addr = block;
    ef.node = victim;
    ef.a = static_cast<std::uint8_t>(req_type);
    o.effects.push_back(ef);
}

void
emitLp(Outcome &o, EffectKind kind, Addr block, NodeId node)
{
    Effect ef;
    ef.kind = kind;
    ef.addr = block;
    ef.node = node;
    o.effects.push_back(ef);
}

void
emitTxnMark(Outcome &o, std::uint64_t id, std::uint8_t phase,
            Tick delay, NodeId node)
{
    if (id == 0)
        return;
    Effect ef;
    ef.kind = EffectKind::TXN_MARK;
    ef.id = id;
    ef.a = phase;
    ef.delay = delay;
    ef.node = node;
    o.effects.push_back(ef);
}

void
emitTxnService(Outcome &o, std::uint64_t id, const ServiceFacts &facts)
{
    if (id == 0)
        return;
    Effect ef;
    ef.kind = EffectKind::TXN_SERVICE;
    ef.id = id;
    ef.slot = static_cast<std::uint32_t>(o.services.size());
    o.services.push_back(facts);
    o.effects.push_back(ef);
}

void
emitComplete(Outcome &o, Tick delay, Word value, bool success,
             Word serial)
{
    Effect ef;
    ef.kind = EffectKind::COMPLETE;
    ef.delay = delay;
    ef.value = value;
    ef.flag = success;
    ef.serial = serial;
    o.effects.push_back(ef);
}

void
emitRetry(Outcome &o)
{
    Effect ef;
    ef.kind = EffectKind::RETRY;
    o.effects.push_back(ef);
}

void
emitArmTimer(Outcome &o)
{
    Effect ef;
    ef.kind = EffectKind::ARM_TIMER;
    o.effects.push_back(ef);
}

void
setDirState(Outcome &o, DirEntry &e, Addr block, DirState to)
{
    DirState from = e.state;
    e.state = to;
    if (from == to)
        return;
    Effect ef;
    ef.kind = EffectKind::TRACE_DIR;
    ef.addr = block;
    ef.a = static_cast<std::uint8_t>(from);
    ef.b = static_cast<std::uint8_t>(to);
    o.effects.push_back(ef);
}

void
captureReply(CtrlState &s, NodeId requester, std::uint64_t seq,
             const Msg &resp)
{
    DedupEntry &de = s.dedup[static_cast<std::size_t>(requester)];
    if (de.seq != seq)
        return; // a newer request already owns the slot
    de.has_reply = true;
    de.reply = resp;
}

Msg
derive(const Env &env, const Msg &cause, MsgType t, NodeId dst,
       NodeId requester, bool with_attempt)
{
    Msg m;
    m.type = t;
    m.dst = dst;
    m.requester = requester;
    m.addr = cause.addr;
    m.word_addr = cause.word_addr;
    m.chain = chainNext(cause.chain, env.self, dst);
    m.txn_id = cause.txn_id;
    m.seq = cause.seq;
    if (with_attempt)
        m.attempt = cause.attempt;
    return m;
}

Msg
replyTo(const Env &env, const Msg &req, MsgType t)
{
    return derive(env, req, t, req.src, req.src, true);
}

void
reply(CtrlState &s, Outcome &o, const Msg &r)
{
    if (!s.dedup.empty() && r.seq != 0)
        captureReply(s, r.requester, r.seq, r);
    emitSend(o, r);
}

void
sendNack(const Env &env, CtrlState &s, Outcome &o, const Msg &req)
{
    ++o.stats.nacks;
    emitLp(o, EffectKind::LP_NACK, req.addr);
    emitTraceNack(o, req.src, req.addr, req.type);
    reply(s, o, replyTo(env, req, MsgType::NACK));
}

void
evictVictim(const Env &env, CtrlState &s, Outcome &o, const Victim &v)
{
    (void)s;
    if (v.state != LineState::EXCLUSIVE)
        return; // shared lines are dropped silently (DASH-style)
    ++o.stats.writebacks;
    Msg wb;
    wb.type = MsgType::WB_DATA;
    wb.dst = env.homeOf(v.base);
    wb.requester = env.self;
    wb.addr = v.base;
    wb.word_addr = v.base;
    wb.data = v.data;
    wb.has_data = true;
    wb.chain = 1;
    emitSend(o, wb);
}

CacheLine *
installLine(const Env &env, CtrlState &s, Outcome &o, Addr addr,
            LineState state, const std::array<Word, BLOCK_WORDS> &data)
{
    Addr base = blockBase(addr);
    CacheLine *line = s.cache.lookup(base);
    LineState prev = LineState::INVALID;
    if (line == nullptr) {
        Victim victim;
        line = s.cache.allocate(base, &victim);
        if (victim.valid)
            evictVictim(env, s, o, victim);
    } else {
        prev = line->state;
    }
    line->state = state;
    line->data = data;
    emitTraceLine(o, base, prev, state);
    return line;
}

Word
readWordAfter(const Env &env, const Outcome &o, Addr a)
{
    Word v = env.ctx->memWord(a);
    for (const MemWrite &mw : o.mem_writes) {
        if (mw.is_block) {
            if (mw.addr == blockBase(a))
                v = mw.block[wordInBlock(a)];
        } else if (mw.addr == a) {
            v = mw.word;
        }
    }
    return v;
}

std::array<Word, BLOCK_WORDS>
readBlockAfter(const Env &env, const Outcome &o, Addr block)
{
    std::array<Word, BLOCK_WORDS> b = env.ctx->memBlock(block);
    for (const MemWrite &mw : o.mem_writes) {
        if (mw.is_block) {
            if (mw.addr == block)
                b = mw.block;
        } else if (blockBase(mw.addr) == block) {
            b[wordInBlock(mw.addr)] = mw.word;
        }
    }
    return b;
}

} // namespace detail

using namespace detail;

bool
tryDedup(const Env &env, CtrlState &s, const Msg &m, Outcome &o)
{
    if (m.replayed) {
        // Injection-flagged duplicate delivery. The mesh replays
        // strictly after the original, so the original has already
        // been delivered and (re)claimed the dedup slot — whatever
        // branch this copy would take, the requester is answered by
        // the original's reply or by the retransmission machinery.
        // Absorb silently, attributed to the injection ledger rather
        // than the organic dup counters so the NACK-balance invariant
        // survives duplication faults.
        ++o.stats.dups_absorbed;
        return true;
    }
    DedupEntry &de = s.dedup[static_cast<std::size_t>(m.src)];
    if (m.seq > de.seq) {
        // New request: the requester is done with every older seq, so
        // the slot (and any cached reply) can be recycled.
        de = DedupEntry{};
        de.seq = m.seq;
        return false;
    }
    ++o.stats.dup_requests;
    if (m.seq < de.seq) {
        // Stale retransmission of a seq the requester already retired;
        // nothing references it anymore.
        ++o.stats.dup_stale;
        return true;
    }
    if (!de.has_reply) {
        // Original still in service (typically forwarded to the owner);
        // its reply will answer the requester.
        ++o.stats.dup_in_progress;
        return true;
    }
    // Shared grants cannot be replayed: a third party's invalidation
    // may have removed the requester from the sharer set since the
    // cached reply was built, and replaying it would install a stale,
    // untracked copy. Failed CAS verdicts are re-evaluated for the
    // same reason (CAS_FAIL_S grants a shared copy; a fresh verdict is
    // linearizable because a failure wrote nothing). Everything else —
    // notably granted exclusive replies, which the directory pins to
    // this requester until it answers (handleFwd NACKs forwards while
    // the local transaction waits) — is replayed verbatim.
    bool reexec =
        m.type == MsgType::GET_S ||
        (m.type == MsgType::CAS_HOME &&
         (de.reply.type == MsgType::CAS_FAIL ||
          de.reply.type == MsgType::CAS_FAIL_S));
    if (reexec && de.reply.type != MsgType::NACK) {
        ++o.stats.dup_reprocessed;
        de.has_reply = false; // re-execution re-captures the reply
        return false;
    }
    ++o.stats.dup_replayed;
    if (de.reply.type == MsgType::NACK)
        ++o.stats.nacks_replayed;
    Msg r = de.reply;
    // UPD copies track memory: refresh the block payload so the replay
    // carries any updates the requester's dead original missed. The
    // result word stays — it is the operation's execution-time value.
    if (r.type == MsgType::UPD_RESP && r.has_data)
        r.data = env.ctx->memBlock(r.addr);
    r.attempt = m.attempt;
    emitSend(o, r);
    return true;
}

Outcome
injectNack(const Env &env, CtrlState &s, const Msg &m)
{
    Outcome o;
    sendNack(env, s, o, m);
    return o;
}

namespace {

/** Deliver @p m to this node, appending to @p o (deliver() and step()). */
void
deliverInto(const Env &env, CtrlState &s, Outcome &o, const Msg &m)
{
    dsm_assert(m.dst == env.self, "message for node %d delivered to %d",
               m.dst, env.self);
    if (homeTargeted(m.type)) {
        // Home-targeted messages, past the memory-module queue.
        homeDispatch(env, s, o, m);
        return;
    }
    switch (m.type) {
      // Third-party coherence actions.
      case MsgType::INV:
        handleInv(env, s, o, m);
        break;
      case MsgType::UPDATE:
        handleUpdate(env, s, o, m);
        break;
      case MsgType::FWD_GET_S:
      case MsgType::FWD_GET_X:
      case MsgType::FWD_CAS:
        handleFwd(env, s, o, m);
        break;

      // Responses addressed to this node as the requester.
      default:
        cpuResponse(env, s, o, m);
        break;
    }
}

} // namespace

Outcome
deliver(const Env &env, CtrlState &s, const Msg &m)
{
    Outcome o;
    deliverInto(env, s, o, m);
    return o;
}

StepResult
step(const Env &env, const CtrlState &s, const Msg &m)
{
    StepResult r{s, Outcome{}};
    if (dedupApplies(r.next, m) && tryDedup(env, r.next, m, r.out))
        return r;
    // After a dedup miss (a new request or a re-execution) delivery
    // appends to the dedup outcome: tryDedup wrote no memory and no
    // directory entry, only counters and effects that precede these.
    deliverInto(env, r.next, r.out, m);
    return r;
}

namespace {

void
append(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    out += buf;
}

} // namespace

std::string
debugString(const Msg &m)
{
    std::string out;
    append(out, "%s src=%d dst=%d req=%d addr=%#llx w=%#llx op=%s "
                "val=%llu exp=%llu res=%llu ok=%d serial=%llu acks=%d "
                "chain=%d seq=%llu att=%d txn=%llu prio=%d qdepth=%d "
                "trace=%u",
           toString(m.type), m.src, m.dst, m.requester,
           static_cast<unsigned long long>(m.addr),
           static_cast<unsigned long long>(m.word_addr), toString(m.op),
           static_cast<unsigned long long>(m.value),
           static_cast<unsigned long long>(m.expected),
           static_cast<unsigned long long>(m.result), m.success ? 1 : 0,
           static_cast<unsigned long long>(m.serial), m.ack_count,
           m.chain, static_cast<unsigned long long>(m.seq), m.attempt,
           static_cast<unsigned long long>(m.txn_id), m.prio, m.qdepth,
           static_cast<unsigned>(m.trace_id));
    if (m.replayed)
        out += " replayed";
    if (m.reordered)
        out += " reordered";
    if (m.has_data) {
        out += " data=[";
        for (std::size_t i = 0; i < m.data.size(); ++i)
            append(out, i ? ",%llu" : "%llu",
                   static_cast<unsigned long long>(m.data[i]));
        out += "]";
    }
    return out;
}

std::string
debugString(const CtrlState &s)
{
    std::string out;
    const TxnState &t = s.txn;
    append(out, "txn{active=%d op=%s addr=%#llx val=%llu exp=%llu "
                "wait=%d resp=%d acks=%d/%d rv=%llu rs=%d rser=%llu "
                "chain=%d retries=%d seq=%llu att=%d req=%s "
                "amask=%#llx}\n",
           t.active ? 1 : 0, toString(t.op),
           static_cast<unsigned long long>(t.addr),
           static_cast<unsigned long long>(t.value),
           static_cast<unsigned long long>(t.expected),
           t.waiting ? 1 : 0, t.resp_seen ? 1 : 0, t.acks_got,
           t.acks_needed, static_cast<unsigned long long>(t.resp_value),
           t.resp_success ? 1 : 0,
           static_cast<unsigned long long>(t.resp_serial), t.max_chain,
           t.retries, static_cast<unsigned long long>(t.seq), t.attempt,
           toString(t.req_type),
           static_cast<unsigned long long>(t.acks_mask));
    s.cache.forEachLine([&out](const CacheLine &l) {
        if (!l.valid())
            return;
        append(out, "line{base=%#llx state=%d data=[",
               static_cast<unsigned long long>(l.base),
               static_cast<int>(l.state));
        for (std::size_t i = 0; i < l.data.size(); ++i)
            append(out, i ? ",%llu" : "%llu",
                   static_cast<unsigned long long>(l.data[i]));
        out += "]}\n";
    });
    if (s.cache.reservationValid())
        append(out, "resv{addr=%#llx}\n",
               static_cast<unsigned long long>(s.cache.reservationAddr()));
    append(out, "next_seq=%llu resv_denied=%d block=%#llx\n",
           static_cast<unsigned long long>(s.next_seq),
           s.resv_denied ? 1 : 0,
           static_cast<unsigned long long>(s.resv_denied_block));
    for (std::size_t n = 0; n < s.dedup.size(); ++n) {
        const DedupEntry &de = s.dedup[n];
        if (de.seq == 0 && !de.has_reply)
            continue;
        append(out, "dedup[%zu]{seq=%llu has_reply=%d", n,
               static_cast<unsigned long long>(de.seq),
               de.has_reply ? 1 : 0);
        if (de.has_reply)
            out += " reply=" + debugString(de.reply);
        out += "}\n";
    }
    return out;
}

std::string
debugString(const Outcome &o)
{
    std::string out;
    for (const MemWrite &mw : o.mem_writes) {
        if (mw.is_block) {
            append(out, "mem{block=%#llx data=[",
                   static_cast<unsigned long long>(mw.addr));
            for (std::size_t i = 0; i < mw.block.size(); ++i)
                append(out, i ? ",%llu" : "%llu",
                       static_cast<unsigned long long>(mw.block[i]));
            out += "]}\n";
        } else {
            append(out, "mem{word=%#llx val=%llu}\n",
                   static_cast<unsigned long long>(mw.addr),
                   static_cast<unsigned long long>(mw.word));
        }
    }
    for (const DirWrite &dw : o.dir_writes) {
        const DirEntry &e = dw.entry;
        append(out, "dir{addr=%#llx state=%d sharers=%#llx owner=%d "
                    "busy=%d pend=%d wb=%d await=%d resv=%#llx "
                    "serial=%lu}\n",
               static_cast<unsigned long long>(dw.addr),
               static_cast<int>(e.state),
               static_cast<unsigned long long>(e.sharers), e.owner,
               e.busy ? 1 : 0, e.pending_requester, e.wb_received ? 1 : 0,
               e.await_wb ? 1 : 0,
               static_cast<unsigned long long>(e.reservations),
               static_cast<unsigned long>(e.serial));
    }
    const StatDelta &d = o.stats;
    append(out, "stats{nacks=%u retries=%u inv=%u upd=%u wb=%u drop=%u "
                "sclf=%u dup=%u/%u/%u/%u/%u nrep=%u nstale=%u stale=%u "
                "dabs=%u}\n",
           d.nacks, d.retries, d.invalidations, d.updates, d.writebacks,
           d.drop_notifies, d.sc_local_failures, d.dup_requests,
           d.dup_stale, d.dup_in_progress, d.dup_reprocessed,
           d.dup_replayed, d.nacks_replayed, d.nacks_stale,
           d.stale_replies, d.dups_absorbed);
    for (const Effect &ef : o.effects) {
        append(out, "effect{kind=%d delay=%llu addr=%#llx node=%d "
                    "a=%u b=%u id=%llu val=%llu ok=%d serial=%llu",
               static_cast<int>(ef.kind),
               static_cast<unsigned long long>(ef.delay),
               static_cast<unsigned long long>(ef.addr), ef.node, ef.a,
               ef.b, static_cast<unsigned long long>(ef.id),
               static_cast<unsigned long long>(ef.value),
               ef.flag ? 1 : 0,
               static_cast<unsigned long long>(ef.serial));
        if (ef.kind == EffectKind::SEND)
            out += " msg=" + debugString(o.msg(ef));
        if (ef.kind == EffectKind::TXN_SERVICE) {
            const ServiceFacts &f = o.facts(ef);
            append(out, " facts{ds=%u sh=%d fwd=%d own=%d mask=%#llx}",
                   f.dir_state, f.sharers, f.forwarded ? 1 : 0, f.owner,
                   static_cast<unsigned long long>(f.fanout_mask));
        }
        out += "}\n";
    }
    return out;
}

} // namespace tf
} // namespace dsm
