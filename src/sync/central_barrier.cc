#include "sync/central_barrier.hh"

#include "cpu/system.hh"
#include "sim/logging.hh"

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

CoTask<Word>
CentralBarrier::bumpCount(Proc &p)
{
    switch (_prim) {
      case Primitive::FAP:
        co_return (co_await p.fetchAdd(_count, 1)).value;
      case Primitive::CAS: {
        const SyncConfig &sc = _sys.cfg().sync;
        for (;;) {
            OpResult r = sc.use_load_exclusive
                             ? co_await p.loadExclusive(_count)
                             : co_await p.load(_count);
            if ((co_await p.cas(_count, r.value, r.value + 1)).success)
                co_return r.value;
        }
      }
      case Primitive::LLSC: {
        for (;;) {
            OpResult r = co_await p.ll(_count);
            if ((co_await p.sc(_count, r.value + 1)).success)
                co_return r.value;
        }
      }
    }
    dsm_panic("unreachable");
}

CoTask<void>
CentralBarrier::arrive(Proc &p)
{
    Word round = ++_local_sense[static_cast<std::size_t>(p.id())];
    Word arrivals = co_await bumpCount(p);
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
