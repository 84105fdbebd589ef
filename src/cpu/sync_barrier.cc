#include "cpu/sync_barrier.hh"

#include "cpu/system.hh"
#include "sim/logging.hh"

namespace dsm {

SyncBarrier::SyncBarrier(System &sys, int participants)
    : _sys(sys), _participants(participants)
{
    dsm_assert(participants > 0, "barrier needs at least one participant");
}

void
SyncBarrier::Waiter::await_suspend(std::coroutine_handle<> h)
{
    barrier.arrived(h);
}

void
SyncBarrier::arrived(std::coroutine_handle<> h)
{
    _waiting.push_back(h);
    if (static_cast<int>(_waiting.size()) < _participants)
        return;

    // Full round: release everyone at the same tick after the fixed cost.
    std::vector<std::coroutine_handle<>> batch;
    batch.swap(_waiting);
    ++_rounds;
    Tick when = _sys.now() + MAGIC_BARRIER_COST;
    for (std::coroutine_handle<> w : batch)
        _sys.eq().schedule(when, [w] { w.resume(); });
}

} // namespace dsm
