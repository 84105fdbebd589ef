#include "sync/ticket_lock.hh"

#include "cpu/system.hh"

namespace dsm {

TicketLock::TicketLock(System &sys, Primitive prim)
    : _sys(sys), _prim(prim),
      _next_ticket(sys.allocSync()),
      _now_serving(sys.allocSync())
{
}

CoTask<Word>
TicketLock::takeTicket(Proc &p)
{
    const SyncConfig &sc = _sys.cfg().sync;
    switch (_prim) {
      case Primitive::FAP:
        co_return (co_await p.fetchAdd(_next_ticket, 1)).value;
      case Primitive::CAS:
        for (;;) {
            OpResult r = sc.use_load_exclusive
                             ? co_await p.loadExclusive(_next_ticket)
                             : co_await p.load(_next_ticket);
            if ((co_await p.cas(_next_ticket, r.value, r.value + 1))
                    .success)
                co_return r.value;
        }
      case Primitive::LLSC:
        for (;;) {
            OpResult r = co_await p.ll(_next_ticket);
            if ((co_await p.sc(_next_ticket, r.value + 1)).success)
                co_return r.value;
        }
    }
    co_return 0;
}

CoTask<Word>
TicketLock::acquire(Proc &p)
{
    Word ticket = co_await takeTicket(p);
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
