/**
 * @file
 * CPU-side transitions: dispatch of processor operations under the
 * three coherence policies (Section 3), response handling, and local
 * execution of atomic primitives for the INV implementations.
 */

#include "proto/transition_impl.hh"

#include "sim/logging.hh"
#include "stats/attribution.hh"

namespace dsm {
namespace tf {

using namespace detail;

namespace {

Tick
hitLatency(const Env &env)
{
    return env.cfg->machine.cache_hit_latency;
}

void
sendReq(const Env &env, CtrlState &s, Outcome &o, MsgType t)
{
    if (env.recoveryOn()) {
        // Every *new* network request (a NACK-and-retry included) gets
        // a fresh seq; only timeout retransmissions reuse one.
        s.txn.seq = ++s.next_seq;
        s.txn.attempt = 1;
        s.txn.req_type = t;
        s.txn.acks_mask = 0;
    }
    s.txn.fill_raced = 0;
    s.txn.waiting = true;
    emitSend(o, buildReq(env, s, t));
    if (env.recoveryOn())
        emitArmTimer(o);
}

/**
 * Resolve a fill race recorded by handleInv/handleUpdate (see
 * TxnState::fill_raced): the just-installed copy predates a
 * third-party invalidation or update that was delivered first
 * (reordering skew), so the operation completes with the granted data
 * — the read is ordered before the racing write — but the copy is not
 * retained. The drop is deliberately silent in both flavours: after
 * an INV the home already removed this node, and after an UPDATE a
 * stale sharer entry is harmless (a spurious UPDATE to an absent line
 * is acked and ignored — the same tolerance silent evictions require)
 * whereas announcing it with DROP_NOTIFY would race the node's own
 * next sequence-guarded request, which reordering can deliver first,
 * making the home un-track a freshly granted copy. Returns true when
 * a race was resolved (the caller must then skip anything that
 * assumes the line stayed resident, e.g. setting an LL reservation).
 */
bool
dropRacedFill(const Env &env, CtrlState &s, Outcome &o, Addr base)
{
    (void)env;
    if (s.txn.fill_raced == 0)
        return false;
    s.txn.fill_raced = 0;
    s.cache.clearReservationIfCovers(base);
    s.cache.invalidate(base);
    emitTraceLine(o, base, LineState::SHARED, LineState::INVALID);
    return true;
}

void
retryTxn(CtrlState &s, Outcome &o)
{
    dsm_assert(s.txn.active, "retry without an active transaction");
    ++s.txn.retries;
    ++o.stats.retries;
    s.txn.waiting = false;
    s.txn.resp_seen = false;
    s.txn.acks_needed = 0;
    s.txn.acks_got = 0;
    s.txn.acks_mask = 0;
    s.txn.max_chain = 0;
    emitRetry(o);
}

/**
 * Execute the active operation on the exclusive line @p line and
 * complete it after @p delay. The one place an INV processor applies
 * load_exclusive, a store or fetch_and_Phi, compare_and_swap or
 * store_conditional to its own copy, whether the line hit in the cache
 * (beginInv) or ownership just arrived (completeExclusive).
 */
void
executeExclusive(CtrlState &s, Outcome &o, CacheLine &line, Tick delay)
{
    Addr a = s.txn.addr;
    Word old = line.readWord(a);
    switch (s.txn.op) {
      case AtomicOp::LOAD_EXCL:
        emitComplete(o, delay, old, true);
        break;
      case AtomicOp::STORE:
      case AtomicOp::TAS:
      case AtomicOp::FAA:
      case AtomicOp::FAS:
      case AtomicOp::FAO:
        line.writeWord(a, applyOp(s.txn.op, old, s.txn.value));
        emitComplete(o, delay, s.txn.op == AtomicOp::STORE ? 0 : old,
                     true);
        break;
      case AtomicOp::CAS: {
        // For the INVd/INVs paths the home/owner already verified
        // equality, so this local comparison succeeds; for plain INV it
        // decides the verdict.
        bool ok = old == s.txn.expected;
        if (ok)
            line.writeWord(a, s.txn.value);
        emitComplete(o, delay, old, ok);
        break;
      }
      case AtomicOp::SC:
        line.writeWord(a, s.txn.value);
        s.cache.clearReservation();
        emitTraceResv(o, blockBase(a), true);
        emitComplete(o, delay, 0, true);
        break;
      default:
        dsm_panic("unexpected exclusive completion for %s",
                  toString(s.txn.op));
    }
}

/**
 * A load (or INV load_linked) served by a shared copy: a hit completes
 * now, a load_linked taking its reservation; a miss fetches the block
 * with GET_S.
 */
void
readShared(const Env &env, CtrlState &s, Outcome &o, const CacheLine *line)
{
    Addr a = s.txn.addr;
    if (line == nullptr) {
        ++s.cache.stats().misses;
        sendReq(env, s, o, MsgType::GET_S);
        return;
    }
    ++s.cache.stats().hits;
    if (s.txn.op == AtomicOp::LL) {
        s.cache.setReservation(a, s.txn.start);
        emitTraceResv(o, blockBase(a), false);
    }
    emitComplete(o, hitLatency(env), line->readWord(a), true);
}

/**
 * drop_copy: give up the cached copy @p line, if any. A shared copy is
 * announced to the home with DROP_NOTIFY; an exclusive one is written
 * back.
 */
void
dropCopy(const Env &env, CtrlState &s, Outcome &o, const CacheLine *line)
{
    Addr a = s.txn.addr;
    if (line != nullptr) {
        if (line->state == LineState::SHARED) {
            ++o.stats.drop_notifies;
            Msg d;
            d.type = MsgType::DROP_NOTIFY;
            d.dst = env.homeOf(a);
            d.requester = env.self;
            d.addr = blockBase(a);
            d.word_addr = a;
            d.chain = 1;
            emitSend(o, d);
        } else {
            evictVictim(env, s, o,
                        Victim{true, blockBase(a), line->state,
                               line->data}); // sends the write-back
        }
        s.cache.invalidate(a);
    }
    emitComplete(o, hitLatency(env), 0, true);
}

/**
 * The store_conditional of a load_linked the home denied a reservation
 * (limited-reservation option) is doomed: it fails locally without any
 * network traffic (Section 3.1). Returns true when it did.
 */
bool
failDeniedSc(const Env &env, CtrlState &s, Outcome &o)
{
    if (s.txn.op != AtomicOp::SC || !s.resv_denied ||
        s.resv_denied_block != blockBase(s.txn.addr))
        return false;
    s.resv_denied = false;
    ++o.stats.sc_local_failures;
    emitComplete(o, hitLatency(env), 0, false);
    return true;
}

void
beginInv(const Env &env, CtrlState &s, Outcome &o)
{
    const Tick hit = hitLatency(env);
    Addr a = s.txn.addr;
    CacheLine *line = s.cache.lookup(a);

    switch (s.txn.op) {
      case AtomicOp::LOAD:
      case AtomicOp::LL:
        // load_linked obtains a *shared* copy; an exclusive load_linked
        // would invite livelock (Section 4.3.2).
        readShared(env, s, o, line);
        break;

      case AtomicOp::LOAD_EXCL:
      case AtomicOp::STORE:
      case AtomicOp::TAS:
      case AtomicOp::FAA:
      case AtomicOp::FAS:
      case AtomicOp::FAO:
      case AtomicOp::CAS:
        if (line != nullptr && line->state == LineState::EXCLUSIVE) {
            ++s.cache.stats().hits;
            executeExclusive(s, o, *line, hit);
        } else if (s.txn.op == AtomicOp::CAS && env.ctx->isSync(a) &&
                   env.cfg->sync.cas_variant != CasVariant::PLAIN) {
            // INVd/INVs: the comparison happens at the home or owner.
            // Ordinary (non-sync) data always uses the plain INV flavour.
            sendReq(env, s, o, MsgType::CAS_HOME);
        } else if (line != nullptr) {
            sendReq(env, s, o, MsgType::UPGRADE);
        } else {
            ++s.cache.stats().misses;
            sendReq(env, s, o, MsgType::GET_X);
        }
        break;

      case AtomicOp::SC: {
        bool reserved = s.cache.reservationValid() &&
                        s.cache.reservationAddr() == blockBase(a);
        // Age-bounded reservations (faults.resv_max_age): a reservation
        // older than the bound — measured from the load_linked's issue
        // tick — is treated as lost, so the store_conditional fails
        // locally instead of trusting arbitrarily stale linkage.
        Tick age_limit = env.cfg->faults.resv_max_age;
        if (reserved && age_limit != 0 &&
            s.txn.start - s.cache.reservationTick() > age_limit) {
            reserved = false;
            s.cache.clearReservation();
            emitTraceResv(o, blockBase(a), true);
        }
        if (!reserved) {
            // Fails locally without causing any network traffic.
            ++o.stats.sc_local_failures;
            emitComplete(o, hit, 0, false);
        } else if (line != nullptr &&
                   line->state == LineState::EXCLUSIVE) {
            ++s.cache.stats().hits;
            executeExclusive(s, o, *line, hit);
        } else {
            dsm_assert(line != nullptr,
                       "valid reservation without a cached line");
            sendReq(env, s, o, MsgType::SC_REQ);
        }
        break;
      }

      case AtomicOp::LLS:
      case AtomicOp::SCS:
        dsm_fatal("serial-number load_linked/store_conditional is an "
                  "in-memory primitive (Section 3.1); the block must use "
                  "the UNC or UPD policy");
        break;

      case AtomicOp::DROP_COPY:
        dropCopy(env, s, o, line);
        break;
    }
}

void
beginUnc(const Env &env, CtrlState &s, Outcome &o)
{
    if (s.txn.op == AtomicOp::DROP_COPY) {
        // Nothing is ever cached under UNC.
        emitComplete(o, hitLatency(env), 0, true);
        return;
    }
    if (failDeniedSc(env, s, o))
        return;
    // Every access goes to the memory at the home node.
    sendReq(env, s, o, MsgType::UNC_REQ);
}

void
beginUpd(const Env &env, CtrlState &s, Outcome &o)
{
    const CacheLine *line = s.cache.lookup(s.txn.addr);

    switch (s.txn.op) {
      case AtomicOp::LOAD:
      case AtomicOp::LOAD_EXCL:
        // UPD lines are only ever shared; load_exclusive degenerates to
        // an ordinary load.
        readShared(env, s, o, line);
        break;

      case AtomicOp::DROP_COPY:
        dropCopy(env, s, o, line);
        break;

      default:
        // All writes and atomic operations -- and load_linked, which must
        // set its reservation at the memory -- go to the home node.
        if (!failDeniedSc(env, s, o))
            sendReq(env, s, o, MsgType::UPD_REQ);
        break;
    }
}

void
dispatchInto(const Env &env, CtrlState &s, Outcome &o)
{
    switch (env.policyOf(s.txn.addr)) {
      case SyncPolicy::INV:
        beginInv(env, s, o);
        break;
      case SyncPolicy::UNC:
        beginUnc(env, s, o);
        break;
      case SyncPolicy::UPD:
        beginUpd(env, s, o);
        break;
    }
}

void
noteReservationVerdict(CtrlState &s, const Msg &m)
{
    if (s.txn.op != AtomicOp::LL)
        return;
    if (m.success) {
        if (s.resv_denied && s.resv_denied_block == m.addr)
            s.resv_denied = false;
    } else {
        // Beyond-the-limit load_linked: remember that the matching
        // store_conditional is doomed (Section 3.1, option 3).
        s.resv_denied = true;
        s.resv_denied_block = m.addr;
    }
}

void
completeUpd(CtrlState &s, Outcome &o)
{
    emitComplete(o, 0, s.txn.resp_value, s.txn.resp_success,
                 s.txn.resp_serial);
}

void
completeExclusive(CtrlState &s, Outcome &o)
{
    CacheLine *line = s.cache.lookup(s.txn.addr);
    dsm_assert(line != nullptr && line->state == LineState::EXCLUSIVE,
               "exclusive completion without an exclusive line");
    executeExclusive(s, o, *line, 0);
}

void
maybeComplete(const Env &env, CtrlState &s, Outcome &o)
{
    if (!s.txn.resp_seen || s.txn.acks_got < s.txn.acks_needed)
        return;
    // The network request is answered: clear waiting so a duplicated
    // or reordered late copy of the reply hits the stale guard instead
    // of re-executing the completion (and so cpuAwaitedSeq()/the
    // retransmission timer see a finished transaction).
    s.txn.waiting = false;
    if (env.policyOf(s.txn.addr) == SyncPolicy::UPD)
        completeUpd(s, o);
    else
        completeExclusive(s, o);
}

} // namespace

namespace detail {

Msg
buildReq(const Env &env, const CtrlState &s, MsgType t)
{
    Msg m;
    m.type = t;
    m.dst = env.homeOf(s.txn.addr);
    m.requester = env.self;
    m.addr = blockBase(s.txn.addr);
    m.word_addr = s.txn.addr;
    m.op = s.txn.op;
    m.value = s.txn.value;
    m.expected = s.txn.expected;
    // Serial-number SC carries the expected serial in the same field a
    // CAS uses for its expected value.
    m.serial = s.txn.expected;
    m.chain = chainNext(0, env.self, m.dst);
    m.txn_id = s.txn.txn_id;
    m.seq = s.txn.seq;
    m.attempt = s.txn.attempt;
    // Overload-protection priority: a NACK-retried or timeout-
    // retransmitted request yields to first-attempt traffic at the
    // home's two-level queue (serve.priority).
    if (env.cfg->serve.enabled && env.cfg->serve.priority &&
        (s.txn.retries > 0 || s.txn.attempt > 1))
        m.prio = 1;
    return m;
}

void
cpuResponse(const Env &env, CtrlState &s, Outcome &o, const Msg &m)
{
    if (m.replayed) {
        // Injection-flagged duplicate: the original copy answers (or
        // already answered) the transaction, so the replay is absorbed
        // unconditionally — never re-driving the state machine even if
        // a scheduler delivers it first. Attributed to the injection
        // ledger, not the organic stale counters, so the NACK-balance
        // invariant survives duplication faults.
        ++o.stats.dups_absorbed;
        return;
    }
    if (env.recoveryOn()) {
        // Replies to a retired or retransmitted seq are duplicates the
        // recovery machinery manufactured; drop them at the door. A
        // primary reply after resp_seen is the same thing (the original
        // and a retransmission-induced copy both arrived).
        bool is_ack = m.type == MsgType::INV_ACK ||
                      m.type == MsgType::UPDATE_ACK;
        bool current = s.txn.active && s.txn.waiting &&
                       m.seq == s.txn.seq &&
                       blockBase(s.txn.addr) == m.addr;
        if (!current || (s.txn.resp_seen && !is_ack)) {
            if (m.type == MsgType::NACK)
                ++o.stats.nacks_stale;
            else
                ++o.stats.stale_replies;
            return;
        }
    }
    dsm_assert(s.txn.active && s.txn.waiting,
               "node %d got %s with no transaction waiting",
               env.self, toString(m.type));
    dsm_assert(blockBase(s.txn.addr) == m.addr,
               "response block %#llx does not match transaction %#llx",
               static_cast<unsigned long long>(m.addr),
               static_cast<unsigned long long>(s.txn.addr));
    if (m.chain > s.txn.max_chain)
        s.txn.max_chain = m.chain;
    if (m.txn_id != 0) {
        TxnPhase ph = (m.type == MsgType::INV_ACK ||
                       m.type == MsgType::UPDATE_ACK)
                          ? TxnPhase::FANOUT
                          : TxnPhase::REPLY_TRANSIT;
        emitTxnMark(o, m.txn_id, static_cast<std::uint8_t>(ph), 0,
                    env.self);
    }

    switch (m.type) {
      case MsgType::NACK:
        retryTxn(s, o);
        break;

      case MsgType::DATA_S: {
        CacheLine *line =
            installLine(env, s, o, m.addr, LineState::SHARED, m.data);
        Word w = line->readWord(s.txn.addr);
        if (!dropRacedFill(env, s, o, m.addr) &&
            s.txn.op == AtomicOp::LL) {
            // The reservation's age is measured from the load_linked's
            // issue tick (the miss latency counts against the bound).
            // A raced fill keeps neither the copy nor a reservation:
            // the matching store_conditional fails locally and the
            // retry refetches a tracked copy.
            s.cache.setReservation(s.txn.addr, s.txn.start);
            emitTraceResv(o, m.addr, false);
        }
        s.txn.waiting = false;
        emitComplete(o, 0, w, true);
        break;
      }

      case MsgType::DATA_X:
        installLine(env, s, o, m.addr, LineState::EXCLUSIVE, m.data);
        s.txn.resp_seen = true;
        s.txn.acks_needed = m.ack_count;
        maybeComplete(env, s, o);
        break;

      case MsgType::SC_RESP:
        if (!m.success) {
            s.cache.clearReservation();
            emitTraceResv(o, m.addr, true);
            s.txn.waiting = false;
            emitComplete(o, 0, 0, false);
            break;
        }
        [[fallthrough]];
      case MsgType::UPG_ACK: {
        // Ownership granted to the shared copy held here.
        CacheLine *line = s.cache.lookup(s.txn.addr);
        dsm_assert(line != nullptr && line->state == LineState::SHARED,
                   "%s granted without a shared copy", toString(m.type));
        line->state = LineState::EXCLUSIVE;
        emitTraceLine(o, m.addr, LineState::SHARED,
                      LineState::EXCLUSIVE);
        s.txn.resp_seen = true;
        s.txn.acks_needed = m.ack_count;
        maybeComplete(env, s, o);
        break;
      }

      case MsgType::CAS_FAIL:
        s.txn.waiting = false;
        emitComplete(o, 0, m.result, false);
        break;

      case MsgType::CAS_FAIL_S:
        installLine(env, s, o, m.addr, LineState::SHARED, m.data);
        dropRacedFill(env, s, o, m.addr);
        s.txn.waiting = false;
        emitComplete(o, 0, m.result, false);
        break;

      case MsgType::UNC_RESP:
        noteReservationVerdict(s, m);
        s.txn.waiting = false;
        emitComplete(o, 0, m.result, m.success, m.serial);
        break;

      case MsgType::UPD_RESP:
        noteReservationVerdict(s, m);
        installLine(env, s, o, m.addr, LineState::SHARED, m.data);
        dropRacedFill(env, s, o, m.addr);
        s.txn.resp_seen = true;
        s.txn.acks_needed = m.ack_count;
        s.txn.resp_value = m.result;
        s.txn.resp_success = m.success;
        s.txn.resp_serial = m.serial;
        maybeComplete(env, s, o);
        break;

      case MsgType::INV_ACK:
      case MsgType::UPDATE_ACK:
        if (env.recoveryOn()) {
            // Per-sharer dedup: a duplicated or reordered second copy
            // of the same node's acknowledgement for this seq must not
            // double-count toward acks_needed.
            std::uint64_t bit = 1ULL << static_cast<unsigned>(m.src);
            if ((s.txn.acks_mask & bit) != 0) {
                ++o.stats.stale_replies;
                break;
            }
            s.txn.acks_mask |= bit;
        }
        ++s.txn.acks_got;
        maybeComplete(env, s, o);
        break;

      default:
        dsm_panic("unexpected CPU response %s", toString(m.type));
    }
}

} // namespace detail

Outcome
issue(const Env &env, CtrlState &s, const OpReq &req)
{
    dsm_assert(!s.txn.active,
               "processor %d issued %s with a transaction outstanding",
               env.self, toString(req.op));
    dsm_assert(req.addr == wordBase(req.addr),
               "unaligned operand address %#llx",
               static_cast<unsigned long long>(req.addr));
    s.txn = TxnState{};
    s.txn.active = true;
    s.txn.op = req.op;
    s.txn.addr = req.addr;
    s.txn.value = req.value;
    s.txn.expected = req.expected;
    s.txn.start = req.start;
    s.txn.txn_id = req.txn_id;
    Outcome o;
    dispatchInto(env, s, o);
    return o;
}

Outcome
dispatch(const Env &env, CtrlState &s)
{
    dsm_assert(s.txn.active, "dispatch without an active transaction");
    Outcome o;
    dispatchInto(env, s, o);
    return o;
}

Outcome
retransmit(const Env &env, CtrlState &s)
{
    Outcome o;
    emitTxnMark(o, s.txn.txn_id,
                static_cast<std::uint8_t>(TxnPhase::RECOVERY), 0,
                env.self);
    ++s.txn.attempt;
    emitSend(o, buildReq(env, s, s.txn.req_type));
    emitArmTimer(o);
    return o;
}

} // namespace tf
} // namespace dsm
