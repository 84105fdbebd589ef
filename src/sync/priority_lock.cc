#include "sync/priority_lock.hh"

#include "cpu/system.hh"
#include "sim/logging.hh"

namespace dsm {

PriorityLock::PriorityLock(System &sys, Primitive prim)
    : _sys(sys), _prim(prim), _lock(sys.allocSync())
{
    int n = sys.numProcs();
    _request.reserve(n);
    _grant.reserve(n);
    for (int i = 0; i < n; ++i) {
        _request.push_back(sys.alloc(BLOCK_BYTES, BLOCK_BYTES));
        _grant.push_back(sys.alloc(BLOCK_BYTES, BLOCK_BYTES));
    }
}

CoTask<bool>
PriorityLock::tryLock(Proc &p)
{
    switch (_prim) {
      case Primitive::FAP:
        co_return (co_await p.testAndSet(_lock)).value == 0;
      case Primitive::CAS:
        co_return (co_await p.cas(_lock, 0, 1)).success;
      case Primitive::LLSC: {
        OpResult r = co_await p.ll(_lock);
        if (r.value != 0)
            co_return false;
        co_return (co_await p.sc(_lock, 1)).success;
      }
    }
    dsm_panic("unreachable");
}

CoTask<void>
PriorityLock::acquire(Proc &p, Word priority)
{
    dsm_assert(priority > 0, "priority must be nonzero");
    auto me = static_cast<std::size_t>(p.id());
    co_await p.store(_request[me], priority);
    for (;;) {
        // A releasing holder may hand the (still held) lock directly
        // to us.
        OpResult grant = co_await p.load(_grant[me]);
        if (grant.value != 0) {
            co_await p.store(_grant[me], 0);
            co_return; // the hand-off cleared our request word
        }
        // Fast path: take a free lock.
        OpResult lock = co_await p.load(_lock);
        if (lock.value != 0)
            continue;
        bool taken = co_await tryLock(p);
        if (taken) {
            co_await p.store(_request[me], 0);
            co_return;
        }
    }
}

CoTask<void>
PriorityLock::release(Proc &p)
{
    // Scan for the highest-priority waiter while still holding the
    // lock; nobody can slip in through the fast path.
    int winner = -1;
    Word best = 0;
    for (int i = 0; i < _sys.numProcs(); ++i) {
        Word prio = (co_await p.load(
                         _request[static_cast<std::size_t>(i)])).value;
        if (prio > best) {
            best = prio;
            winner = i;
        }
    }
    if (winner < 0) {
        // No waiters: free the lock.
        co_await p.store(_lock, 0);
        if (_sys.cfg().sync.use_drop_copy)
            co_await p.dropCopy(_lock);
        co_return;
    }
    // Direct hand-off: clear the winner's request, then grant.
    ++_handoffs;
    co_await p.store(_request[static_cast<std::size_t>(winner)], 0);
    co_await p.store(_grant[static_cast<std::size_t>(winner)], 1);
}

} // namespace dsm
