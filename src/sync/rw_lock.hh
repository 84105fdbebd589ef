/**
 * @file
 * Centralized reader-writer lock, after the scalable reader-writer
 * synchronization work the paper cites ([21]) as a consumer of
 * general-purpose primitives.
 *
 * The lock word encodes (reader_count << 1) | writer_bit. Readers and
 * writers acquire it with the configured universal primitive; the FAP
 * variant uses fetch_and_add with compensation (increment, check, undo),
 * which needs no compare_and_swap. Both releases are a fetch_and_add
 * through fetchAndPhi (sync/primitives.hh), native or simulated.
 */

#ifndef DSM_SYNC_RW_LOCK_HH
#define DSM_SYNC_RW_LOCK_HH

#include <cstdint>

#include "cpu/co_task.hh"
#include "cpu/proc.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace dsm {

class System;

/** Reader-writer spin lock with writer preference left to chance. */
class RwLock
{
  public:
    RwLock(System &sys, Primitive prim);

    Addr addr() const { return _state; }

    CoTask<void> readerAcquire(Proc &p);
    CoTask<void> readerRelease(Proc &p);
    CoTask<void> writerAcquire(Proc &p);
    CoTask<void> writerRelease(Proc &p);

  private:
    static constexpr Word WRITER_BIT = 1;
    static constexpr Word READER_UNIT = 2;

    System &_sys;
    Primitive _prim;
    Addr _state; ///< sync variable
};

} // namespace dsm

#endif // DSM_SYNC_RW_LOCK_HH
