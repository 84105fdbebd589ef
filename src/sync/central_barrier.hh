/**
 * @file
 * Central sense-reversing barrier built on fetch_and_add (or its CAS /
 * LL-SC simulations): the classic centralized counterpart of the MCS
 * tree barrier in [20]. All arrivals update one counter and all waiters
 * spin on one sense word, so it stresses exactly the hot-spot behaviour
 * the paper's contention experiments study.
 */

#ifndef DSM_SYNC_CENTRAL_BARRIER_HH
#define DSM_SYNC_CENTRAL_BARRIER_HH

#include <cstdint>
#include <vector>

#include "cpu/co_task.hh"
#include "cpu/proc.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace dsm {

class System;

/** Centralized sense-reversing barrier. */
class CentralBarrier
{
  public:
    CentralBarrier(System &sys, Primitive prim, int participants);

    /** Arrive and wait for all participants. */
    CoTask<void> arrive(Proc &p);

    std::uint64_t roundsCompleted() const { return _rounds; }

  private:
    System &_sys;
    Primitive _prim;
    int _n;
    Addr _count; ///< sync: arrivals this round
    Addr _sense; ///< sync: round number; waiters spin on it
    std::vector<Word> _local_sense; ///< per-processor round counter
    std::uint64_t _rounds = 0;
};

} // namespace dsm

#endif // DSM_SYNC_CENTRAL_BARRIER_HH
