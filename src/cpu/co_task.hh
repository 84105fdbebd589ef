/**
 * @file
 * The simulator's one coroutine type.
 *
 * A workload "thread" is a Task (CoTask<>). It starts suspended;
 * System::spawn() schedules the first resume at simulation start. The
 * coroutine suspends inside the Proc awaitables (memory operations,
 * compute delays, barriers) and is resumed by the model at the
 * operation's completion tick. This plays the role MINT's
 * execution-driven front end plays in the paper: it produces each
 * processor's reference stream.
 *
 * Synchronization algorithms compose the same way: a workload can
 * `co_await lock.acquire(p)` where acquire() is itself a CoTask issuing
 * Proc operations. A CoTask is lazy: the body starts when awaited, and
 * completion resumes the awaiting coroutine by symmetric transfer. A
 * spawned Task has no awaiter, so it stays suspended at its end and
 * done() holds.
 */

#ifndef DSM_CPU_CO_TASK_HH
#define DSM_CPU_CO_TASK_HH

#include <coroutine>
#include <utility>

#include "sim/logging.hh"

namespace dsm {

/** Return channel of a CoTask<T> promise: the value co_returned. */
template <typename T>
struct CoReturn
{
    T value{};

    void return_value(T v) { value = std::move(v); }
    T take() { return std::move(value); }
};

/** Return channel of a CoTask<void> promise: nothing. */
template <>
struct CoReturn<void>
{
    void return_void() noexcept {}
    void take() noexcept {}
};

/** Move-only handle owning one coroutine returning a T (or void). */
template <typename T = void>
class CoTask
{
  public:
    struct promise_type : CoReturn<T>
    {
        std::coroutine_handle<> continuation;

        CoTask
        get_return_object()
        {
            return CoTask(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() const noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<promise_type> h) noexcept
            {
                return h.promise().continuation
                           ? h.promise().continuation
                           : std::noop_coroutine();
            }

            void await_resume() const noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }

        void
        unhandled_exception()
        {
            dsm_panic("unhandled exception escaped a coroutine");
        }
    };

    CoTask() = default;
    explicit CoTask(std::coroutine_handle<promise_type> h) : _h(h) {}
    CoTask(CoTask &&o) noexcept : _h(std::exchange(o._h, nullptr)) {}

    CoTask &
    operator=(CoTask &&o) noexcept
    {
        if (this != &o) {
            destroy();
            _h = std::exchange(o._h, nullptr);
        }
        return *this;
    }

    CoTask(const CoTask &) = delete;
    CoTask &operator=(const CoTask &) = delete;
    ~CoTask() { destroy(); }

    /** True once the coroutine has run to completion. */
    bool done() const { return !_h || _h.done(); }

    /** The raw handle (used by System::spawn for the initial resume). */
    std::coroutine_handle<> handle() const { return _h; }

    /** Awaiter: start the body; resume the awaiter when it returns. */
    auto
    operator co_await() && noexcept
    {
        struct Awaiter
        {
            std::coroutine_handle<promise_type> h;

            bool await_ready() const noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> cont) noexcept
            {
                h.promise().continuation = cont;
                return h;
            }

            T await_resume() { return h.promise().take(); }
        };
        return Awaiter{_h};
    }

  private:
    void
    destroy()
    {
        if (_h) {
            _h.destroy();
            _h = nullptr;
        }
    }

    std::coroutine_handle<promise_type> _h;
};

/** A workload thread: the coroutine System::spawn() runs. */
using Task = CoTask<>;

} // namespace dsm

#endif // DSM_CPU_CO_TASK_HH
