/**
 * @file
 * MCS queue-based spin lock (Mellor-Crummey & Scott [20]), the paper's
 * third synthetic application: "a counter protected by an MCS lock to
 * cover the case in which load_linked/store_conditional simulates
 * compare_and_swap".
 *
 * The lock tail is the synchronization variable; queue nodes are
 * ordinary shared data (each processor spins only on its own node).
 * Primitive mapping (the simulations are sync/primitives.hh's):
 *  - CAS: native fetch_and_store is unavailable at level 2 only in
 *    theory; here CAS simulates the swap with a load/CAS retry loop and
 *    performs the release compare directly;
 *  - LLSC: LL/SC simulates both the swap and the release CAS;
 *  - FAP: fetch_and_store is used for the swap, and the release uses the
 *    MCS variant that needs no compare_and_swap (the two-swap "usurper"
 *    protocol from [20]).
 */

#ifndef DSM_SYNC_MCS_LOCK_HH
#define DSM_SYNC_MCS_LOCK_HH

#include <cstdint>
#include <vector>

#include "cpu/co_task.hh"
#include "cpu/proc.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace dsm {

class System;

/** MCS list-based queue lock. */
class McsLock
{
  public:
    /**
     * @param use_serial_sc With the LLSC primitive and an in-memory
     *        (UNC/UPD) policy, use serial-number LL/SC (Section 3.1):
     *        the release issues a *bare* store_conditional against the
     *        serial remembered from the acquire swap, saving one memory
     *        access -- the optimization the paper attributes to this
     *        scheme for "algorithms such as the MCS queue-based spin
     *        lock".
     */
    McsLock(System &sys, Primitive prim, bool use_serial_sc = false);

    Addr tailAddr() const { return _tail; }

    /** Enqueue and spin until the lock is held. */
    CoTask<void> acquire(Proc &p);

    /** Pass the lock to the successor (or free it). */
    CoTask<void> release(Proc &p);

    std::uint64_t acquisitions() const { return _acquisitions; }

  private:
    /** Swap the tail with serial-number LL/SC (Section 3.1). */
    CoTask<Word> serialSwapTail(Proc &p, Word v);

    /** Queue-node encoding: node of processor i is the value i+1. */
    static Word encode(NodeId n) { return static_cast<Word>(n) + 1; }
    static NodeId decode(Word v) { return static_cast<NodeId>(v) - 1; }

    System &_sys;
    Primitive _prim;
    bool _use_serial_sc;
    Addr _tail;                 ///< sync variable
    std::vector<Addr> _next;    ///< per-processor qnode.next (ordinary)
    std::vector<Addr> _locked;  ///< per-processor qnode.locked (ordinary)
    /** Per-processor: tail serial right after our acquire swap. */
    std::vector<Word> _swap_serial;
    std::uint64_t _acquisitions = 0;
};

} // namespace dsm

#endif // DSM_SYNC_MCS_LOCK_HH
