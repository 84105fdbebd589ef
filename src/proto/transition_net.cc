/**
 * @file
 * Remote-side transitions: invalidations, word updates, and requests
 * forwarded to this node as the exclusive owner of a line (including
 * the owner-side comparison of the INVd/INVs compare_and_swap
 * variants).
 */

#include "proto/transition_impl.hh"

#include "sim/logging.hh"
#include "stats/attribution.hh"

namespace dsm {
namespace tf {

using namespace detail;

namespace {

/**
 * A third-party INV or UPDATE found no copy here. With reordering armed
 * (FaultConfig::reorderPossible) it may have overtaken this node's own
 * fill of the block, which the directory already counts as delivered:
 * mark the race so the install does not keep a copy the directory no
 * longer tracks, or one holding a stale word (TxnState::fill_raced).
 * Under FIFO delivery the grant would have arrived first.
 */
void
noteFillRace(const Env &env, CtrlState &s, Addr block)
{
    if (env.cfg->faults.reorderPossible() && s.txn.active &&
        s.txn.waiting && blockBase(s.txn.addr) == block)
        s.txn.fill_raced = 1;
}

/** Acknowledge @p m, an INV or UPDATE, to its requester. */
void
sendAck(const Env &env, Outcome &o, const Msg &m, MsgType t)
{
    emitSend(o, derive(env, m, t, m.requester, m.requester, false),
             CACHE_ACCESS_LATENCY);
}

} // namespace

namespace detail {

void
handleInv(const Env &env, CtrlState &s, Outcome &o, const Msg &m)
{
    // An invalidation clears any load_linked reservation covering the
    // block (Section 3) and drops the copy if still present (a silent
    // eviction may have removed it already; the ack is owed regardless).
    s.cache.clearReservationIfCovers(m.addr);
    const CacheLine *line = s.cache.peek(m.addr);
    if (line != nullptr) {
        dsm_assert(line->state == LineState::SHARED,
                   "invalidation hit an exclusive line at node %d",
                   env.self);
        ++s.cache.stats().invalidations_received;
        s.cache.invalidate(m.addr);
        emitTraceLine(o, m.addr, LineState::SHARED, LineState::INVALID);
    } else {
        // An INV supersedes any earlier UPDATE race: the directory has
        // dropped this node from the sharer list either way.
        noteFillRace(env, s, m.addr);
    }
    sendAck(env, o, m, MsgType::INV_ACK);
}

void
handleUpdate(const Env &env, CtrlState &s, Outcome &o, const Msg &m)
{
    // Word update under the UPD policy: refresh the copy if present.
    s.cache.clearReservationIfCovers(m.addr);
    CacheLine *line = s.cache.lookup(m.addr);
    if (line != nullptr) {
        dsm_assert(line->state == LineState::SHARED,
                   "update hit a non-shared line at node %d", env.self);
        line->writeWord(m.word_addr, m.result);
    } else {
        // The drop at install time stays silent; the node simply
        // refetches on its next access.
        noteFillRace(env, s, m.addr);
    }
    sendAck(env, o, m, MsgType::UPDATE_ACK);
}

void
handleFwd(const Env &env, CtrlState &s, Outcome &o, const Msg &m)
{
    NodeId home = env.homeOf(m.addr);
    Tick delay = CACHE_ACCESS_LATENCY;

    // The forwarded leg's transit ends here; the owner's cache access
    // (its reply departs `delay` from now) is attributed to OWNER.
    emitTxnMark(o, m.txn_id,
                static_cast<std::uint8_t>(TxnPhase::REQ_TRANSIT), 0,
                env.self);
    emitTxnMark(o, m.txn_id,
                static_cast<std::uint8_t>(TxnPhase::OWNER), delay,
                env.self);

    // The owner's answer goes back to the home, which completes the
    // transfer for the original requester.
    auto answer = [&](MsgType t) {
        return derive(env, m, t, home, m.requester, true);
    };

    // If this node's own transaction on the block is still collecting
    // its grant or acknowledgements, it cannot surrender the line yet.
    if (s.txn.active && s.txn.waiting &&
        blockBase(s.txn.addr) == m.addr) {
        emitSend(o, answer(MsgType::FWD_NACK_RETRY), delay);
        return;
    }

    CacheLine *line = s.cache.lookup(m.addr);
    if (line == nullptr) {
        // The line was evicted or dropped; its write-back is in flight
        // (or already at home). This is the drop_copy race of
        // Section 4.3.1.
        emitSend(o, answer(MsgType::FWD_NACK_WB), delay);
        return;
    }
    dsm_assert(line->state == LineState::EXCLUSIVE,
               "forwarded request at node %d found a %s line",
               env.self, toString(line->state));

    Msg r;
    Word old = line->readWord(m.word_addr); // FWD_CAS's comparison
    switch (m.type) {
      case MsgType::FWD_GET_S:
        // Downgrade and keep a shared copy.
        line->state = LineState::SHARED;
        emitTraceLine(o, m.addr, LineState::EXCLUSIVE, LineState::SHARED);
        r = answer(MsgType::OWNER_DATA_S);
        r.data = line->data;
        r.has_data = true;
        break;
      case MsgType::FWD_CAS:
        if (old != m.expected) {
            if (env.cfg->sync.cas_variant == CasVariant::DENY) {
                // INVd: the failing request gets no copy; ours stays
                // intact.
                r = answer(MsgType::CAS_OWNER_FAIL);
            } else {
                // INVs: downgrade and give the requester a read-only
                // copy.
                line->state = LineState::SHARED;
                emitTraceLine(o, m.addr, LineState::EXCLUSIVE,
                              LineState::SHARED);
                r = answer(MsgType::CAS_OWNER_FAIL_S);
                r.data = line->data;
                r.has_data = true;
            }
            r.result = old;
            break;
        }
        // Equality holds: behave like INV and surrender the line, so
        // the requester acquires an exclusive copy and does the swap.
        [[fallthrough]];
      case MsgType::FWD_GET_X:
        r = answer(MsgType::OWNER_DATA_X);
        r.data = line->data;
        r.has_data = true;
        s.cache.invalidate(m.addr);
        emitTraceLine(o, m.addr, LineState::EXCLUSIVE, LineState::INVALID);
        break;
      default:
        dsm_panic("unexpected forwarded message %s", toString(m.type));
    }
    emitSend(o, r, delay);
}

} // namespace detail

} // namespace tf
} // namespace dsm
