#include "sync/central_barrier.hh"

#include "cpu/system.hh"
#include "sim/logging.hh"
#include "sync/primitives.hh"

namespace dsm {

CentralBarrier::CentralBarrier(System &sys, Primitive prim,
                               int participants)
    : _sys(sys), _prim(prim), _n(participants),
      _count(sys.allocSync()), _sense(sys.allocSync()),
      _local_sense(sys.numProcs(), 0)
{
    dsm_assert(participants > 0 && participants <= sys.numProcs(),
               "bad participant count %d", participants);
}

CoTask<void>
CentralBarrier::arrive(Proc &p)
{
    Word round = ++_local_sense[static_cast<std::size_t>(p.id())];
    Word arrivals =
        co_await fetchAndPhi(p, _prim, AtomicOp::FAA, _count, 1);
    if (arrivals + 1 == static_cast<Word>(_n)) {
        // Last arriver: reset the counter and release the round.
        ++_rounds;
        co_await p.store(_count, 0);
        co_await p.store(_sense, round);
    } else {
        // Spin on the shared sense word.
        co_await p.spinLoad(_sense, SpinUntil::atLeast(round));
    }
}

} // namespace dsm
