#include "sync/ticket_lock.hh"

#include "cpu/system.hh"
#include "sync/primitives.hh"

namespace dsm {

TicketLock::TicketLock(System &sys, Primitive prim)
    : _sys(sys), _prim(prim),
      _next_ticket(sys.allocSync()),
      _now_serving(sys.allocSync())
{
}

CoTask<Word>
TicketLock::acquire(Proc &p)
{
    Word ticket =
        co_await fetchAndPhi(p, _prim, AtomicOp::FAA, _next_ticket, 1);
    // Spin; under INV this hits the cached copy until released.
    co_await p.spinLoad(_now_serving, SpinUntil::eq(ticket));
    co_return ticket;
}

CoTask<void>
TicketLock::release(Proc &p, Word ticket)
{
    co_await p.store(_now_serving, ticket + 1);
    if (_sys.cfg().sync.use_drop_copy) {
        co_await p.dropCopy(_now_serving);
        co_await p.dropCopy(_next_ticket);
    }
}

} // namespace dsm
