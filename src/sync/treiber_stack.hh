/**
 * @file
 * Treiber-style lock-free stack, exercising Section 2.2's discussion of
 * the "pointer problem": a load/compare_and_swap pair cannot detect that
 * a pointer was popped and pushed back (ABA), while load_linked/
 * store_conditional can, because any intervening write invalidates the
 * reservation.
 *
 * Node links are encoded as indices into a preallocated node pool
 * (0 = nil, i+1 = node i). The CAS variant is therefore deliberately
 * ABA-vulnerable when nodes are recycled -- tests demonstrate exactly
 * the failure the paper describes -- and the LL/SC variant is immune.
 */

#ifndef DSM_SYNC_TREIBER_STACK_HH
#define DSM_SYNC_TREIBER_STACK_HH

#include <cstdint>
#include <vector>

#include "cpu/co_task.hh"
#include "cpu/proc.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace dsm {

class System;

/** Lock-free stack of pool-allocated nodes. */
class TreiberStack
{
  public:
    /**
     * @param prim CAS or LLSC (FAP cannot implement a lock-free stack;
     *             Herlihy's hierarchy, Section 2.2).
     * @param pool_size Number of preallocated nodes.
     */
    TreiberStack(System &sys, Primitive prim, int pool_size);

    Addr headAddr() const { return _head; }

    /** Push node @p node_id (0-based pool index) with @p value. */
    CoTask<void> push(Proc &p, int node_id, Word value);

    /**
     * Pop the top node.
     * @return the 0-based pool index of the popped node, or -1 if empty.
     */
    CoTask<int> pop(Proc &p);

    /** Node link address (for directed ABA tests). */
    Addr nodeNextAddr(int node_id) const { return _next[node_id]; }

  private:
    static Word encode(int node_id) { return static_cast<Word>(node_id) + 1; }
    static int decode(Word v) { return static_cast<int>(v) - 1; }

    Primitive _prim;
    Addr _head;               ///< sync variable
    std::vector<Addr> _next;  ///< per-node link word (ordinary data)
    std::vector<Addr> _value; ///< per-node value word (ordinary data)
};

} // namespace dsm

#endif // DSM_SYNC_TREIBER_STACK_HH
