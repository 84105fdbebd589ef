/**
 * @file
 * CLH queue lock (Craig; Landin & Hagersten): an implicit-queue spin
 * lock needing only fetch_and_store, where each processor spins on its
 * *predecessor's* node. A natural companion to the MCS lock in the
 * paper's algorithm space: it exercises the swap primitive (level 2 of
 * Herlihy's hierarchy) without any compare_and_swap in the release.
 */

#ifndef DSM_SYNC_CLH_LOCK_HH
#define DSM_SYNC_CLH_LOCK_HH

#include <cstdint>
#include <vector>

#include "cpu/co_task.hh"
#include "cpu/proc.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace dsm {

class System;

/** CLH list-based queue lock. */
class ClhLock
{
  public:
    ClhLock(System &sys, Primitive prim);

    Addr tailAddr() const { return _tail; }

    CoTask<void> acquire(Proc &p);
    CoTask<void> release(Proc &p);

    std::uint64_t acquisitions() const { return _acquisitions; }

  private:
    System &_sys;
    Primitive _prim;
    Addr _tail; ///< sync variable; holds the current tail node id + 1

    /**
     * Node pool: one node per processor plus one initial node. In CLH a
     * releasing processor donates its node to the successor and adopts
     * its predecessor's, so ownership rotates; we track the node each
     * processor currently owns and the one it spins on.
     */
    std::vector<Addr> _node;      ///< node flag words (ordinary data)
    std::vector<int> _my_node;    ///< node owned by each processor
    std::vector<int> _my_pred;    ///< node adopted from the predecessor
    std::uint64_t _acquisitions = 0;
};

} // namespace dsm

#endif // DSM_SYNC_CLH_LOCK_HH
