/**
 * @file
 * The processor-side programming interface used by workloads and by the
 * synchronization library.
 *
 * A Proc models one blocking, in-order processor (like the MIPS R4000 the
 * paper simulates): it issues one memory/synchronization operation at a
 * time and waits for completion. Workload coroutines co_await the
 * operations below.
 *
 * The instruction set matches the simulated machine of Section 4.1: the
 * base ISA's loads/stores and load_linked/store_conditional, plus
 * fetch_and_Phi, compare_and_swap, load_exclusive, and drop_copy.
 */

#ifndef DSM_CPU_PROC_HH
#define DSM_CPU_PROC_HH

#include <coroutine>

#include "net/msg.hh"
#include "proto/controller.hh"
#include "sim/types.hh"

namespace dsm {

class System;

/**
 * Exit test of a spin-wait (Proc::spinLoad): a captureless predicate on
 * the loaded word and one operand, so an iteration allocates nothing.
 * A null test marks a single operation.
 */
struct SpinUntil
{
    bool (*test)(Word value, Word operand);
    Word operand;

    bool operator()(Word value) const { return test(value, operand); }

    /** Until the word equals @p x. */
    static SpinUntil
    eq(Word x)
    {
        return {[](Word v, Word o) { return v == o; }, x};
    }

    /** Until the word differs from @p x. */
    static SpinUntil
    ne(Word x)
    {
        return {[](Word v, Word o) { return v != o; }, x};
    }

    /** Until the word is at least @p x. */
    static SpinUntil
    atLeast(Word x)
    {
        return {[](Word v, Word o) { return v >= o; }, x};
    }

    /** Until every bit of @p mask is clear in the word. */
    static SpinUntil
    clear(Word mask)
    {
        return {[](Word v, Word o) { return (v & o) == 0; }, mask};
    }
};

/** One simulated processor. */
class Proc
{
  public:
    Proc(System &sys, NodeId id);

    NodeId id() const { return _id; }
    System &sys() { return _sys; }

    /**
     * Awaitable returned by every memory/sync operation and by
     * spinLoad(). It lives in the waiting coroutine's frame, and the
     * processor refers to it in place until the operation completes.
     *
     * Bind each result to a named OpResult before using it, as
     * sync/primitives.cc does (`OpResult r = co_await p.ll(a);`). With
     * GCC 12.2 two shapes build without a warning but hang or trap at
     * -O1 and -O2: a co_await inside a conditional operator
     * (`c ? co_await p.fetchAdd(a, v) : co_await p.fetchStore(a, v)`)
     * and a parenthesized co_await compared in an if-condition against
     * a parameter (`if ((co_await p.ll(a)).value != expected)`).
     */
    struct Op
    {
        Proc &proc;
        AtomicOp op;
        Addr addr;
        Word value;
        Word expected;
        /** Exit test of a spin-wait; a single operation has none. */
        SpinUntil until{};
        OpResult result{};
        std::coroutine_handle<> waiter{};

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            waiter = h;
            proc.issue(*this);
        }

        OpResult await_resume() const noexcept { return result; }
    };

    /** Ordinary load; result.value is the word read. */
    Op load(Addr a) { return Op{*this, AtomicOp::LOAD, a, 0, 0}; }

    /** Ordinary store. */
    Op store(Addr a, Word v) { return Op{*this, AtomicOp::STORE, a, v, 0}; }

    /** load_exclusive: read @p a, acquiring exclusive ownership. */
    Op
    loadExclusive(Addr a)
    {
        return Op{*this, AtomicOp::LOAD_EXCL, a, 0, 0};
    }

    /** drop_copy: self-invalidate (write back if dirty) the line of @p a. */
    Op dropCopy(Addr a) { return Op{*this, AtomicOp::DROP_COPY, a, 0, 0}; }

    /** test_and_set: set to 1, return the original value. */
    Op testAndSet(Addr a) { return Op{*this, AtomicOp::TAS, a, 1, 0}; }

    /** fetch_and_add. */
    Op fetchAdd(Addr a, Word v) { return Op{*this, AtomicOp::FAA, a, v, 0}; }

    /** fetch_and_store (atomic swap). */
    Op
    fetchStore(Addr a, Word v)
    {
        return Op{*this, AtomicOp::FAS, a, v, 0};
    }

    /** fetch_and_or. */
    Op fetchOr(Addr a, Word v) { return Op{*this, AtomicOp::FAO, a, v, 0}; }

    /**
     * compare_and_swap: if *a == expected, *a = desired.
     * result.success is the verdict; result.value the original value.
     */
    Op
    cas(Addr a, Word expected, Word desired)
    {
        return Op{*this, AtomicOp::CAS, a, desired, expected};
    }

    /** load_linked: read and set the reservation. */
    Op ll(Addr a) { return Op{*this, AtomicOp::LL, a, 0, 0}; }

    /**
     * store_conditional: store @p v if the reservation is still valid.
     * result.success is the verdict.
     */
    Op sc(Addr a, Word v) { return Op{*this, AtomicOp::SC, a, v, 0}; }

    /**
     * Serial-number load_linked (Section 3.1): reads the value and the
     * block's write serial number (result.serial). In-memory primitive:
     * the block must use the UNC or UPD policy.
     */
    Op llSerial(Addr a) { return Op{*this, AtomicOp::LLS, a, 0, 0}; }

    /**
     * Serial-number store_conditional: store @p v iff the block's write
     * serial still equals @p serial. May be issued "bare", with no
     * preceding load_linked -- the property the paper exploits to save
     * a memory access in the MCS lock release.
     */
    Op
    scSerial(Addr a, Word v, Word serial)
    {
        return Op{*this, AtomicOp::SCS, a, v, serial};
    }

    /**
     * Spin on ordinary loads of @p a until @p until holds for the value
     * read; the result is that load's. Every iteration keeps the
     * events, ticks, statistics and cache state of the reference loop
     * `while (!until((r = co_await load(a)).value)) {}`, which stays
     * legal. An iteration that hits in the cache while no per-op
     * observer is on skips the protocol transition and its commit
     * (Controller::loadHit()); one whose hit the test rejects parks the
     * spin-wait, which then shares one event per tick with the spin
     * group around it until its line or sync word is touched (DESIGN
     * §8). Any other iteration takes the ordinary path.
     */
    Op
    spinLoad(Addr a, SpinUntil until)
    {
        return Op{*this, AtomicOp::LOAD, a, 0, 0, until};
    }

    /** Awaitable local computation delay of a fixed number of cycles. */
    struct Delay
    {
        Proc &proc;
        Tick cycles;

        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h);
        void await_resume() const noexcept {}
    };

    /** Spend @p cycles of local computation. */
    Delay compute(Tick cycles) { return Delay{*this, cycles}; }

    /** @name Workload-visible statistics. @{ */
    /** Operations issued, a parked spin-wait's iterations included. */
    std::uint64_t opsIssued();
    /** @} */

    /**
     * Count @p n issues a parked spin-wait made virtually
     * (Controller::settleSpin() only).
     */
    void countIssues(std::uint64_t n) { _ops_issued += n; }

    /**
     * Finish the outstanding operation (Controller::finishNow() only):
     * sharing-pattern bookkeeping, then resume its waiter, or issue the
     * next iteration of a spin-wait whose test failed.
     */
    void complete(const OpResult &r);

  private:
    /** Capture @p o as the outstanding operation, then start() it. */
    void issue(Op &o);

    /**
     * Issue the outstanding operation (again, for a spin-wait whose
     * test failed), on the spin-wait hit path if it applies.
     */
    void start();

    System &_sys;
    NodeId _id;
    std::uint64_t _ops_issued = 0;

    /** @name The outstanding operation, as captured at issue. @{ */
    Op *_op = nullptr;
    /** A sync-data access (sharing tracker). */
    bool _is_sync = false;
    /** An atomic attempt on sync data (contention, Figure 2). */
    bool _is_attempt = false;
    /** @} */
};

} // namespace dsm

#endif // DSM_CPU_PROC_HH
