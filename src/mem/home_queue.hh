/**
 * @file
 * Explicit home-node request queue for the overload-protection layer
 * (ServeConfig). Without it, requests to a home reserve MemModule
 * service slots implicitly in arrival order; with serve.enabled each
 * home buffers its requests here and the controller pumps one service
 * slot at a time, which is what makes combining (many requests, one
 * slot) and priority scheduling (two classes with aging) possible.
 *
 * The queue is two-level: foreground requests (prio 0) ahead of
 * low-priority retry/recovery traffic (prio 1). Starvation freedom of
 * the low class is by aging: pump() serves the low head first whenever
 * it has waited at least age_limit cycles, so a low request is
 * overtaken by foreground traffic for a bounded time, after which it
 * is the very next request served.
 */

#ifndef DSM_MEM_HOME_QUEUE_HH
#define DSM_MEM_HOME_QUEUE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/directory.hh"
#include "net/msg.hh"
#include "sim/types.hh"

namespace dsm {

/** Machine-wide counters of the overload-protection layer. */
struct ServeStats
{
    /** @name Home-queue service accounting. @{ */
    std::uint64_t slots = 0;      ///< memory service slots consumed
    std::uint64_t served = 0;     ///< requests served (all classes)
    std::uint64_t hi_served = 0;  ///< foreground requests served
    std::uint64_t lo_served = 0;  ///< low-priority requests served
    std::uint64_t aged = 0;       ///< low heads promoted by aging
    /** @} */

    /** @name Combining (invariant: served == slots + coalesced). @{ */
    std::uint64_t batches = 0;    ///< combined batches (size >= 2)
    std::uint64_t coalesced = 0;  ///< followers folded into a leader's slot
    /** @} */

    /** @name Credit-based backpressure. @{ */
    std::uint64_t throttle_events = 0; ///< requester entered throttle
    std::uint64_t throttle_cycles = 0; ///< total throttled duration
    /** @} */

    /** @name Contention backoff for NACK retries. @{ */
    std::uint64_t backoff_capped = 0; ///< retries at the raised cap
    /** @} */
};

/**
 * One home node's two-level request queue. Owned by System (one per
 * node when serve.enabled); the node's Controller pushes arriving
 * home-targeted requests and pumps service slots.
 */
class HomeQueue
{
  public:
    /** One queued request with its arrival tick (for aging/tracing). */
    struct Entry
    {
        Msg msg;
        Tick enq = 0;
    };

    explicit HomeQueue(Tick age_limit) : _age_limit(age_limit) {}

    /** Buffer an arriving request in its priority class. */
    void
    push(const Msg &m, Tick now, bool low)
    {
        (low ? _lo : _hi).push_back(Entry{m, now});
    }

    /**
     * Pop the next request to serve at @p now: the low head when it
     * has aged past the limit, else the foreground head, else the low
     * head. Requires !empty().
     */
    Entry
    pop(Tick now, ServeStats &st)
    {
        bool aged = !_lo.empty() && now >= _lo.front().enq &&
                    now - _lo.front().enq >= _age_limit;
        std::deque<Entry> &q = (aged || _hi.empty()) ? _lo : _hi;
        Entry e = q.front();
        q.pop_front();
        ++st.served;
        if (&q == &_lo) {
            ++st.lo_served;
            if (aged && !_hi.empty())
                ++st.aged;
        } else {
            ++st.hi_served;
        }
        return e;
    }

    /**
     * Extract every queued request that combines with @p leader —
     * same type, same word address, commutative op — from either
     * class, preserving queue order, up to @p limit followers, into
     * @p out (cleared first, so a caller can reuse one buffer).
     * Combining candidates: FAA fetch&adds to the same word (UNC_REQ /
     * UPD_REQ), and duplicate GET_S fills of the same block.
     */
    void
    extractCombinable(const Msg &leader, int limit, std::vector<Entry> &out)
    {
        out.clear();
        auto sweep = [&](std::deque<Entry> &q) {
            for (auto it = q.begin();
                 it != q.end() && static_cast<int>(out.size()) < limit;) {
                if (combinesWith(leader, it->msg)) {
                    out.push_back(*it);
                    it = q.erase(it);
                } else {
                    ++it;
                }
            }
        };
        sweep(_hi);
        sweep(_lo);
    }

    /**
     * True when @p m may lead a combining batch at a home whose entry
     * for its block is @p e. The entry must be idle, and the request
     * one the home answers from memory alone: a fetch&add UNC_REQ on an
     * uncached block, or a fetch&add UPD_REQ or a GET_S fill on a block
     * no cache holds exclusively (a busy or exclusive entry forwards or
     * NACKs instead).
     */
    static bool
    leads(const Msg &m, const DirEntry &e)
    {
        if (e.busy)
            return false;
        switch (m.type) {
          case MsgType::UNC_REQ:
            return m.op == AtomicOp::FAA && e.state == DirState::UNCACHED;
          case MsgType::UPD_REQ:
            return m.op == AtomicOp::FAA && e.state != DirState::EXCLUSIVE;
          case MsgType::GET_S:
            return e.state != DirState::EXCLUSIVE;
          default:
            return false;
        }
    }

    /** True when @p follower can share @p leader's service slot. */
    static bool
    combinesWith(const Msg &leader, const Msg &follower)
    {
        if (follower.type != leader.type ||
            follower.src == leader.src)
            return false;
        if (leader.type == MsgType::GET_S)
            return follower.addr == leader.addr;
        if ((leader.type == MsgType::UNC_REQ ||
             leader.type == MsgType::UPD_REQ) &&
            leader.op == AtomicOp::FAA &&
            follower.op == AtomicOp::FAA)
            return follower.word_addr == leader.word_addr;
        return false;
    }

    bool empty() const { return _hi.empty() && _lo.empty(); }
    std::size_t depth() const { return _hi.size() + _lo.size(); }

  private:
    Tick _age_limit;
    std::deque<Entry> _hi;
    std::deque<Entry> _lo;
};

} // namespace dsm

#endif // DSM_MEM_HOME_QUEUE_HH
