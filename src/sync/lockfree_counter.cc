#include "sync/lockfree_counter.hh"

#include "cpu/system.hh"
#include "sim/logging.hh"
#include "sync/primitives.hh"

namespace dsm {

namespace {

/**
 * Contention backoff for failed CAS/SC attempts, armed with the
 * serving layer (serve.nack_backoff): a failed attempt means another
 * processor won the word, so pausing before the retry sheds the
 * concurrency that made it fail — the same capped-exponential rule
 * the NACK retry path uses, with serve.backoff_cap doublings of
 * machine.retry_delay.
 */
Backoff
contentionBackoff(const Config &cfg)
{
    const ServeConfig &sv = cfg.serve;
    if (!sv.enabled || !sv.nack_backoff)
        return Backoff(0, 0); // currentBound() == 0: backoff off
    Tick base = cfg.machine.retry_delay;
    return Backoff(base, base << sv.backoff_cap);
}

} // namespace

LockFreeCounter::LockFreeCounter(System &sys, Primitive prim)
    : _sys(sys), _prim(prim), _addr(sys.allocSync())
{
}

LockFreeCounter::LockFreeCounter(System &sys, Primitive prim, Addr addr)
    : _sys(sys), _prim(prim), _addr(addr)
{
    dsm_assert(sys.isSync(addr),
               "LockFreeCounter address must be synchronization data");
}

void
LockFreeCounter::reset(Word v)
{
    _sys.writeInit(_addr, v);
}

CoTask<Word>
LockFreeCounter::fetchAdd(Proc &p, Word delta)
{
    Word old = co_await fetchAndPhi(p, _prim, AtomicOp::FAA, _addr, delta,
                                    contentionBackoff(_sys.cfg()),
                                    &_failed_attempts);
    if (_sys.cfg().sync.use_drop_copy)
        co_await p.dropCopy(_addr);
    co_return old;
}

} // namespace dsm
