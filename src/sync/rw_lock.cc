#include "sync/rw_lock.hh"

#include "cpu/system.hh"
#include "sim/logging.hh"
#include "sync/backoff.hh"

namespace dsm {

RwLock::RwLock(System &sys, Primitive prim)
    : _sys(sys), _prim(prim), _state(sys.allocSync())
{
}

CoTask<bool>
RwLock::casState(Proc &p, Word expected, Word desired)
{
    if (_prim == Primitive::CAS)
        co_return (co_await p.cas(_state, expected, desired)).success;
    dsm_assert(_prim == Primitive::LLSC, "casState needs CAS or LL/SC");
    for (;;) {
        OpResult r = co_await p.ll(_state);
        if (r.value != expected)
            co_return false;
        if ((co_await p.sc(_state, desired)).success)
            co_return true;
    }
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
            co_await casState(p, v, v + READER_UNIT))
            co_return;
        co_await p.compute(backoff.next(_sys.rng()));
    }
}

CoTask<void>
RwLock::readerRelease(Proc &p)
{
    if (_prim == Primitive::FAP) {
        co_await p.fetchAdd(_state, static_cast<Word>(-READER_UNIT));
        co_return;
    }
    for (;;) {
        Word v = (co_await p.load(_state)).value;
        if (co_await casState(p, v, v - READER_UNIT))
            co_return;
    }
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
        if (v == 0 && co_await casState(p, 0, WRITER_BIT))
            co_return;
        co_await p.compute(backoff.next(_sys.rng()));
    }
}

CoTask<void>
RwLock::writerRelease(Proc &p)
{
    if (_prim == Primitive::FAP) {
        // The writer bit is ours alone; clear it with a plain store
        // is unsafe while readers faa the word, so use fetch_and_add
        // of -1 (the bit is the low bit and reader units are even).
        co_await p.fetchAdd(_state, static_cast<Word>(-WRITER_BIT));
        co_return;
    }
    for (;;) {
        Word v = (co_await p.load(_state)).value;
        if (co_await casState(p, v, v & ~WRITER_BIT))
            co_return;
    }
}

} // namespace dsm
