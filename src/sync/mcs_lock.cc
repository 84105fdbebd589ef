#include "sync/mcs_lock.hh"

#include "cpu/system.hh"
#include "sim/logging.hh"

namespace dsm {

McsLock::McsLock(System &sys, Primitive prim, bool use_serial_sc)
    : _sys(sys), _prim(prim), _use_serial_sc(use_serial_sc),
      _tail(sys.allocSync()), _swap_serial(sys.numProcs(), 0)
{
    if (_use_serial_sc) {
        dsm_assert(prim == Primitive::LLSC,
                   "serial-number SC is an LL/SC-family primitive");
        dsm_assert(sys.cfg().sync.policy != SyncPolicy::INV,
                   "serial-number LL/SC is an in-memory primitive; the "
                   "lock needs the UNC or UPD policy");
    }
    int n = sys.numProcs();
    _next.reserve(n);
    _locked.reserve(n);
    for (int i = 0; i < n; ++i) {
        // One block per field per processor: each spins only on its own
        // node, and padding avoids false sharing between nodes.
        _next.push_back(sys.alloc(BLOCK_BYTES, BLOCK_BYTES));
        _locked.push_back(sys.alloc(BLOCK_BYTES, BLOCK_BYTES));
    }
}

CoTask<Word>
McsLock::swapTail(Proc &p, Word v)
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
        if (_use_serial_sc) {
            for (;;) {
                OpResult r = co_await p.llSerial(_tail);
                OpResult s = co_await p.scSerial(_tail, v, r.serial);
                if (s.success) {
                    // Remember the serial our swap produced; the
                    // release's bare SC checks against it.
                    _swap_serial[static_cast<std::size_t>(p.id())] =
                        s.serial;
                    co_return r.value;
                }
            }
        }
        for (;;) {
            OpResult r = co_await p.ll(_tail);
            if ((co_await p.sc(_tail, v)).success)
                co_return r.value;
        }
      }
    }
    dsm_panic("unreachable");
}

CoTask<bool>
McsLock::casTail(Proc &p, Word expected, Word v)
{
    switch (_prim) {
      case Primitive::CAS:
        co_return (co_await p.cas(_tail, expected, v)).success;
      case Primitive::LLSC: {
        // LL/SC simulation of compare_and_swap (Section 2.2): retry only
        // on spurious store_conditional failure.
        for (;;) {
            OpResult r = co_await p.ll(_tail);
            if (r.value != expected)
                co_return false;
            if ((co_await p.sc(_tail, v)).success)
                co_return true;
        }
      }
      case Primitive::FAP:
        dsm_panic("fetch_and_Phi cannot simulate compare_and_swap "
                  "(Herlihy's hierarchy); use the swap-only release");
    }
    dsm_panic("unreachable");
}

CoTask<void>
McsLock::acquire(Proc &p)
{
    NodeId me = p.id();
    co_await p.store(_next[me], 0);
    Word pred = co_await swapTail(p, encode(me));
    if (pred != 0) {
        // Mark ourselves waiting *before* linking so the predecessor
        // cannot release us first.
        co_await p.store(_locked[me], 1);
        co_await p.store(_next[decode(pred)], encode(me));
        // Spin on the local queue node (ordinary data).
        co_await p.spinLoad(_locked[me], SpinUntil::eq(0));
    }
    ++_acquisitions;
}

CoTask<void>
McsLock::release(Proc &p)
{
    NodeId me = p.id();
    Word succ = (co_await p.load(_next[me])).value;

    if (succ == 0) {
        if (_prim == Primitive::FAP) {
            // The swap-only release of [20]: detach the queue, then
            // splice any "usurper" that slipped in between the swaps.
            Word old_tail = co_await swapTail(p, 0);
            if (old_tail == encode(me))
                co_return; // truly no successor
            Word usurper = co_await swapTail(p, old_tail);
            // Wait for the in-between enqueuer to link itself.
            succ = (co_await p.spinLoad(_next[me], SpinUntil::ne(0))).value;
            if (usurper != 0)
                co_await p.store(_next[decode(usurper)], succ);
            else
                co_await p.store(_locked[decode(succ)], 0);
        } else if (_use_serial_sc) {
            // A *bare* serial-number store_conditional releases the
            // lock in a single memory access: it succeeds iff the tail
            // serial is unchanged since our acquire swap, i.e. nobody
            // has enqueued behind us (Section 3.1).
            OpResult s = co_await p.scSerial(
                _tail, 0, _swap_serial[static_cast<std::size_t>(me)]);
            if (s.success)
                co_return; // no successor
            succ = (co_await p.spinLoad(_next[me], SpinUntil::ne(0))).value;
            co_await p.store(_locked[decode(succ)], 0);
        } else {
            if (co_await casTail(p, encode(me), 0))
                co_return; // no successor
            // A successor is enqueuing; wait for the link, then pass.
            succ = (co_await p.spinLoad(_next[me], SpinUntil::ne(0))).value;
            co_await p.store(_locked[decode(succ)], 0);
        }
    } else {
        co_await p.store(_locked[decode(succ)], 0);
    }

    if (_sys.cfg().sync.use_drop_copy)
        co_await p.dropCopy(_tail);
}

} // namespace dsm
