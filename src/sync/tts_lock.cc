#include "sync/tts_lock.hh"

#include "cpu/system.hh"
#include "sync/backoff.hh"

namespace dsm {

TtsLock::TtsLock(System &sys, Primitive prim, Tick backoff_base,
                 Tick backoff_cap)
    : _sys(sys), _prim(prim), _addr(sys.allocSync()),
      _backoff_base(backoff_base), _backoff_cap(backoff_cap)
{
}

CoTask<void>
TtsLock::acquire(Proc &p)
{
    const SyncConfig &sc = _sys.cfg().sync;
    Backoff backoff(_backoff_base, _backoff_cap);

    for (;;) {
        // Test phase: spin on ordinary reads until the lock looks free.
        // The read itself paces the loop (it takes at least a cache hit,
        // and a full round trip under UNC).
        co_await p.spinLoad(_addr, SpinUntil::eq(0));

        // Attempt phase with the configured primitive.
        bool got = false;
        switch (_prim) {
          case Primitive::FAP:
            got = (co_await p.testAndSet(_addr)).value == 0;
            break;
          case Primitive::CAS:
            if (sc.use_load_exclusive) {
                // Re-test with an exclusive read right before the CAS so
                // the CAS hits locally (Section 3).
                OpResult r = co_await p.loadExclusive(_addr);
                if (r.value != 0)
                    continue;
            }
            got = (co_await p.cas(_addr, 0, 1)).success;
            break;
          case Primitive::LLSC: {
            OpResult r = co_await p.ll(_addr);
            if (r.value != 0)
                continue;
            got = (co_await p.sc(_addr, 1)).success;
            break;
          }
        }

        if (got) {
            ++_acquisitions;
            co_return;
        }
        ++_failed_attempts;
        co_await p.compute(backoff.next(_sys.rng()));
    }
}

CoTask<void>
TtsLock::release(Proc &p)
{
    co_await p.store(_addr, 0);
    if (_sys.cfg().sync.use_drop_copy)
        co_await p.dropCopy(_addr);
}

} // namespace dsm
