#include "sync/clh_lock.hh"

#include "cpu/system.hh"
#include "sim/logging.hh"

namespace dsm {

ClhLock::ClhLock(System &sys, Primitive prim)
    : _sys(sys), _prim(prim), _tail(sys.allocSync()),
      _my_node(sys.numProcs()), _my_pred(sys.numProcs(), -1)
{
    int n = sys.numProcs();
    // n + 1 nodes: one per processor plus the initial (unlocked) node.
    _node.reserve(n + 1);
    for (int i = 0; i <= n; ++i)
        _node.push_back(sys.alloc(BLOCK_BYTES, BLOCK_BYTES));
    for (int i = 0; i < n; ++i)
        _my_node[static_cast<std::size_t>(i)] = i;
    // The initial node (id n) is unlocked and is the initial tail.
    sys.writeInit(_tail, static_cast<Word>(n) + 1);
}

CoTask<Word>
ClhLock::swapTail(Proc &p, Word v)
{
    switch (_prim) {
      case Primitive::FAP:
        co_return (co_await p.fetchStore(_tail, v)).value;
      case Primitive::CAS: {
        const SyncConfig &sc = _sys.cfg().sync;
        for (;;) {
            OpResult r = sc.use_load_exclusive
                             ? co_await p.loadExclusive(_tail)
                             : co_await p.load(_tail);
            if ((co_await p.cas(_tail, r.value, v)).success)
                co_return r.value;
        }
      }
      case Primitive::LLSC: {
        for (;;) {
            OpResult r = co_await p.ll(_tail);
            if ((co_await p.sc(_tail, v)).success)
                co_return r.value;
        }
      }
    }
    dsm_panic("unreachable");
}

CoTask<void>
ClhLock::acquire(Proc &p)
{
    auto me = static_cast<std::size_t>(p.id());
    int mine = _my_node[me];
    // Mark our node locked, publish it as the tail, spin on the
    // predecessor's node.
    co_await p.store(_node[static_cast<std::size_t>(mine)], 1);
    Word pred = co_await swapTail(p, static_cast<Word>(mine) + 1);
    dsm_assert(pred != 0, "CLH tail was uninitialized");
    int pred_node = static_cast<int>(pred) - 1;
    _my_pred[me] = pred_node;
    // Spin on the predecessor's flag (ordinary cached data).
    co_await p.spinLoad(_node[static_cast<std::size_t>(pred_node)],
                        SpinUntil::eq(0));
    ++_acquisitions;
}

CoTask<void>
ClhLock::release(Proc &p)
{
    auto me = static_cast<std::size_t>(p.id());
    int mine = _my_node[me];
    // Unlock our node (the successor is or will be spinning on it) and
    // adopt the predecessor's node for our next acquire.
    co_await p.store(_node[static_cast<std::size_t>(mine)], 0);
    _my_node[me] = _my_pred[me];
    _my_pred[me] = -1;
    if (_sys.cfg().sync.use_drop_copy)
        co_await p.dropCopy(_tail);
}

} // namespace dsm
