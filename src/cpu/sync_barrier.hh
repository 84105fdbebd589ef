/**
 * @file
 * Constant-time "magic" barrier.
 *
 * The paper's synthetic applications use constant-time barriers supported
 * by MINT to control sharing patterns: "Because these barriers are
 * constant-time, they have no effect on the results other than enforcing
 * the intended sharing patterns." SyncBarrier is that construct: it is a
 * pure simulator device, not built from atomic primitives, and releases
 * all arrived threads at the same tick after a fixed cost.
 *
 * For a *real* barrier built from the primitives under study, see
 * sync/tree_barrier.hh.
 */

#ifndef DSM_CPU_SYNC_BARRIER_HH
#define DSM_CPU_SYNC_BARRIER_HH

#include <coroutine>
#include <vector>

#include "sim/types.hh"

namespace dsm {

class System;

/** Constant-time barrier synchronizing a fixed set of participants. */
class SyncBarrier
{
  public:
    /**
     * @param sys The owning system (for the event queue).
     * @param participants Number of threads that must arrive.
     */
    SyncBarrier(System &sys, int participants);

    /** Number of times the barrier has released a full round. */
    std::uint64_t rounds() const { return _rounds; }

    /** Awaitable arrival; suspends until all participants arrive. */
    struct Waiter
    {
        SyncBarrier &barrier;

        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h);
        void await_resume() const noexcept {}
    };

    /** co_await barrier.arrive(); */
    Waiter arrive() { return Waiter{*this}; }

  private:
    friend struct Waiter;
    void arrived(std::coroutine_handle<> h);

    System &_sys;
    int _participants;
    std::vector<std::coroutine_handle<>> _waiting;
    std::uint64_t _rounds = 0;
};

} // namespace dsm

#endif // DSM_CPU_SYNC_BARRIER_HH
