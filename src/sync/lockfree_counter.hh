/**
 * @file
 * Lock-free shared counter, the paper's first synthetic application and
 * the work-distribution mechanism of its Transitive Closure program.
 *
 * The counter is updated by fetch_and_add through the configured
 * universal primitive: natively under FAP, or by the CAS or LL/SC
 * simulation of sync/primitives.hh, with contention backoff between
 * failed attempts when the serving layer arms it.
 *
 * When the drop_copy auxiliary instruction is enabled, the cached copy is
 * dropped after each successful update (Section 4.3.1).
 */

#ifndef DSM_SYNC_LOCKFREE_COUNTER_HH
#define DSM_SYNC_LOCKFREE_COUNTER_HH

#include "cpu/co_task.hh"
#include "cpu/proc.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace dsm {

class System;

/** A lock-free counter on one synchronization word. */
class LockFreeCounter
{
  public:
    /**
     * Allocate the counter as synchronization data.
     * @param prim The universal primitive used for updates.
     */
    LockFreeCounter(System &sys, Primitive prim);

    /** Wrap an existing sync address (must already be marked sync). */
    LockFreeCounter(System &sys, Primitive prim, Addr addr);

    Addr addr() const { return _addr; }

    /** Atomically add @p delta; returns the pre-update value. */
    CoTask<Word> fetchAdd(Proc &p, Word delta);

    /** fetchAdd(p, 1). */
    CoTask<Word> fetchInc(Proc &p) { return fetchAdd(p, 1); }

    /** Reset the stored value directly (between measurement phases). */
    void reset(Word v = 0);

    /** Number of failed CAS/SC attempts across all updates. */
    std::uint64_t failedAttempts() const { return _failed_attempts; }

  private:
    System &_sys;
    Primitive _prim;
    Addr _addr;
    std::uint64_t _failed_attempts = 0;
};

} // namespace dsm

#endif // DSM_SYNC_LOCKFREE_COUNTER_HH
