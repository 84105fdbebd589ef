#include "sync/tree_barrier.hh"

#include "cpu/system.hh"
#include "sim/logging.hh"

namespace dsm {

TreeBarrier::TreeBarrier(System &sys, int participants)
    : _sys(sys), _n(participants), _round(participants, 0)
{
    dsm_assert(participants > 0 && participants <= sys.numProcs(),
               "bad participant count %d", participants);
    _ready.reserve(_n);
    _wake.reserve(_n);
    for (int i = 0; i < _n; ++i) {
        // Block-padded flags: each is written by one processor and spun
        // on by one other, so padding avoids false sharing.
        _ready.push_back(sys.alloc(BLOCK_BYTES, BLOCK_BYTES));
        _wake.push_back(sys.alloc(BLOCK_BYTES, BLOCK_BYTES));
    }
}

CoTask<void>
TreeBarrier::arrive(Proc &p)
{
    int me = p.id();
    dsm_assert(me < _n, "processor %d is not a barrier participant", me);
    Word r = ++_round[me];

    // Arrival phase: wait for all 4-ary-tree children, then tell the
    // parent we (and our whole subtree) have arrived.
    for (int k = 0; k < ARRIVAL_ARITY; ++k) {
        int child = ARRIVAL_ARITY * me + k + 1;
        if (child >= _n)
            break;
        // Spin on the child's arrival flag.
        co_await p.spinLoad(_ready[child], SpinUntil::eq(r));
    }
    if (me != 0) {
        co_await p.store(_ready[me], r);
        // Wakeup phase: wait for our binary-tree parent's signal.
        co_await p.spinLoad(_wake[me], SpinUntil::eq(r));
    } else {
        ++_rounds_completed;
    }

    // Propagate the wakeup to our binary-tree children.
    for (int k = 1; k <= 2; ++k) {
        int child = 2 * me + k;
        if (child < _n)
            co_await p.store(_wake[child], r);
    }
}

} // namespace dsm
