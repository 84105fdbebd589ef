#include "sync/primitives.hh"

#include "cpu/system.hh"
#include "sim/logging.hh"

namespace dsm {

CoTask<Word>
fetchAndPhi(Proc &p, Primitive prim, AtomicOp phi, Addr a, Word operand,
            Backoff backoff, std::uint64_t *failures)
{
    dsm_assert(phi == AtomicOp::FAA || phi == AtomicOp::FAS,
               "fetchAndPhi of %s", toString(phi));
    // Every awaited result is bound to a named OpResult: GCC 12 can
    // lose the resumption of an await nested in a conditional operator
    // or an if-condition comparison.
    OpResult r;
    if (prim == Primitive::FAP) {
        if (phi == AtomicOp::FAA)
            r = co_await p.fetchAdd(a, operand);
        else
            r = co_await p.fetchStore(a, operand);
        co_return r.value;
    }
    const bool lx = p.sys().cfg().sync.use_load_exclusive;
    for (;;) {
        OpResult w;
        if (prim == Primitive::LLSC) {
            r = co_await p.ll(a);
            w = co_await p.sc(a, applyOp(phi, r.value, operand));
        } else {
            if (lx)
                r = co_await p.loadExclusive(a);
            else
                r = co_await p.load(a);
            w = co_await p.cas(a, r.value, applyOp(phi, r.value, operand));
        }
        if (w.success)
            co_return r.value;
        if (failures != nullptr)
            ++*failures;
        if (backoff.currentBound() > 0)
            co_await p.compute(backoff.next(p.sys().rng()));
    }
}

CoTask<bool>
compareAndSwap(Proc &p, Primitive prim, Addr a, Word expected, Word desired)
{
    OpResult r;
    if (prim == Primitive::CAS) {
        r = co_await p.cas(a, expected, desired);
        co_return r.success;
    }
    dsm_assert(prim == Primitive::LLSC,
               "fetch_and_Phi cannot simulate compare_and_swap "
               "(Herlihy's hierarchy)");
    for (;;) {
        r = co_await p.ll(a);
        if (r.value != expected)
            co_return false;
        r = co_await p.sc(a, desired);
        if (r.success)
            co_return true;
    }
}

} // namespace dsm
