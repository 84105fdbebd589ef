#include "sync/rw_lock.hh"

#include "cpu/system.hh"
#include "sync/backoff.hh"
#include "sync/primitives.hh"

namespace dsm {

RwLock::RwLock(System &sys, Primitive prim)
    : _sys(sys), _prim(prim), _state(sys.allocSync())
{
}

CoTask<void>
RwLock::readerAcquire(Proc &p)
{
    Backoff backoff(8, 512);
    if (_prim == Primitive::FAP) {
        // Increment-and-compensate: no CAS needed.
        for (;;) {
            Word old = (co_await p.fetchAdd(_state, READER_UNIT)).value;
            if ((old & WRITER_BIT) == 0)
                co_return;
            co_await p.fetchAdd(_state, static_cast<Word>(-READER_UNIT));
            co_await p.compute(backoff.next(_sys.rng()));
        }
    }
    for (;;) {
        Word v = (co_await p.load(_state)).value;
        if ((v & WRITER_BIT) == 0 &&
            co_await compareAndSwap(p, _prim, _state, v,
                                    v + READER_UNIT))
            co_return;
        co_await p.compute(backoff.next(_sys.rng()));
    }
}

CoTask<void>
RwLock::readerRelease(Proc &p)
{
    co_await fetchAndPhi(p, _prim, AtomicOp::FAA, _state,
                         static_cast<Word>(-READER_UNIT));
}

CoTask<void>
RwLock::writerAcquire(Proc &p)
{
    Backoff backoff(8, 512);
    if (_prim == Primitive::FAP) {
        // Grab the writer bit with fetch_and_or, then wait for readers
        // to drain.
        for (;;) {
            Word old = (co_await p.fetchOr(_state, WRITER_BIT)).value;
            if ((old & WRITER_BIT) == 0)
                break;
            co_await p.compute(backoff.next(_sys.rng()));
        }
        // Wait for active readers to release.
        co_await p.spinLoad(_state, SpinUntil::clear(~WRITER_BIT));
        co_return;
    }
    // CAS/LLSC: transition 0 -> WRITER_BIT.
    for (;;) {
        Word v = (co_await p.load(_state)).value;
        if (v == 0 &&
            co_await compareAndSwap(p, _prim, _state, 0, WRITER_BIT))
            co_return;
        co_await p.compute(backoff.next(_sys.rng()));
    }
}

CoTask<void>
RwLock::writerRelease(Proc &p)
{
    // The writer bit is ours alone, but readers may fetch_and_add the
    // word meanwhile, so clear it with a fetch_and_add of -1 (the bit is
    // the low bit and reader units are even) rather than a store.
    co_await fetchAndPhi(p, _prim, AtomicOp::FAA, _state,
                         static_cast<Word>(-WRITER_BIT));
}

} // namespace dsm
