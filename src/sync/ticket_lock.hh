/**
 * @file
 * Ticket lock (FIFO spin lock) built on the primitives under study; an
 * extension beyond the paper's three synthetic applications that gives
 * the fetch_and_add primitive a lock workload it is naturally suited to.
 */

#ifndef DSM_SYNC_TICKET_LOCK_HH
#define DSM_SYNC_TICKET_LOCK_HH

#include <cstdint>

#include "cpu/co_task.hh"
#include "cpu/proc.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace dsm {

class System;

/** FIFO ticket lock; acquire returns the ticket to pass to release. */
class TicketLock
{
  public:
    TicketLock(System &sys, Primitive prim);

    /** Take a ticket and spin until served. @return the ticket. */
    CoTask<Word> acquire(Proc &p);

    /** Release; @p ticket must be the value acquire() returned. */
    CoTask<void> release(Proc &p, Word ticket);

    Addr nextTicketAddr() const { return _next_ticket; }
    Addr nowServingAddr() const { return _now_serving; }

  private:
    System &_sys;
    Primitive _prim;
    Addr _next_ticket;  ///< sync variable
    Addr _now_serving;  ///< sync variable
};

} // namespace dsm

#endif // DSM_SYNC_TICKET_LOCK_HH
