/**
 * @file
 * Deterministic discrete-event queue driving the cycle-level simulation.
 *
 * Events scheduled for the same tick fire in FIFO order of scheduling
 * (a monotonically increasing sequence number breaks ties), which makes
 * every simulation run bit-for-bit reproducible.
 *
 * The pending set is a calendar queue of pooled intrusive events. A
 * ring of WINDOW per-tick FIFO buckets holds every event due in
 * [now, now + WINDOW), with an occupancy bitmap to find the next
 * non-empty tick; events further ahead wait in a (when, seq) min-heap
 * and move into their buckets, in heap order, as soon as the clock
 * advance brings them inside the window -- before any event at the new
 * tick runs. This is exactly (when, seq) order: seq grows with
 * scheduling order, so appending to a tick's bucket keeps it sorted,
 * and every far event for tick T was scheduled while T lay outside the
 * window, hence before any direct insert for T.
 *
 * Each event embeds a small type-erased callback buffer, so the hot
 * schedule/fire path performs no per-event heap allocation once the
 * pool is warm (callbacks larger than the inline buffer fall back to
 * one heap allocation). Fired events return to a free list for reuse.
 */

#ifndef DSM_SIM_EVENT_QUEUE_HH
#define DSM_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace dsm {

/**
 * The global simulated clock and pending-event set.
 *
 * All model components share one EventQueue owned by the System. Time
 * advances only inside run()/runUntil()/step(), never backwards.
 */
class EventQueue
{
  public:
    /** Generic callback type; any callable may be scheduled directly. */
    using Callback = std::function<void()>;

    /**
     * Ticks covered by the bucket ring (a power of two): events due
     * within WINDOW ticks of now() go straight to their tick's bucket,
     * later ones to the far heap.
     */
    static constexpr Tick WINDOW = 1024;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /** Current simulated time in cycles. */
    Tick now() const { return _now; }

    /** Number of events executed since construction. */
    std::uint64_t eventsExecuted() const { return _executed; }

    /** True if no events remain pending. */
    bool empty() const { return _pending == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return _pending; }

    /**
     * Schedule a callable at an absolute tick.
     * @param when Absolute tick; must not be in the past.
     * @param f The action to run when the clock reaches @p when.
     */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        dsm_assert(when >= _now,
                   "scheduling into the past: %llu < %llu",
                   static_cast<unsigned long long>(when),
                   static_cast<unsigned long long>(_now));
        Event *e = allocate();
        e->when = when;
        e->seq = _next_seq++;
        bindCallback(e, std::forward<F>(f));
        ++_pending;
        if (when - _now < WINDOW)
            append(e);
        else
            farPush(e);
    }

    /** Schedule a callable @p delay cycles from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&f)
    {
        schedule(_now + delay, std::forward<F>(f));
    }

    /**
     * Attach a periodic sampling hook (time-resolved telemetry). The
     * callback fires once per window boundary — ticks period, 2*period,
     * ... — immediately before the first event at or after each
     * boundary executes, so a sample at boundary T observes exactly the
     * events of [0, T). Boundaries with no events in between are still
     * delivered (in order) before the next event runs; sampling never
     * schedules events, so it cannot keep the queue alive. With no
     * sampler attached the hot path pays a single branch per event.
     */
    using SamplerFn = std::function<void(Tick)>;
    void
    setSampler(Tick period, SamplerFn fn)
    {
        dsm_assert(period > 0, "sampler period must be nonzero");
        _sample_period = period;
        _next_sample = _now + period;
        _sampler = std::move(fn);
    }

    /** Deliver any window boundaries up to and including @p when. */
    void
    sampleUpTo(Tick when)
    {
        while (_next_sample <= when) {
            _sampler(_next_sample);
            _next_sample += _sample_period;
        }
    }

    /**
     * Execute the single next event, advancing the clock to it.
     * @return false if the queue was empty.
     */
    bool step() { return stepUpTo(MAX_TICK); }

    /**
     * Run until the queue drains or @p limit events have executed.
     * @return the number of events executed by this call.
     */
    std::uint64_t run(std::uint64_t limit = UINT64_MAX);

    /**
     * Run until the clock would pass @p when (events at @p when still
     * execute), the queue drains, or @p limit events have executed.
     * The clock is advanced to at least @p when on return.
     * @return the number of events executed by this call.
     */
    std::uint64_t runUntil(Tick when, std::uint64_t limit = UINT64_MAX);

  private:
    /**
     * Inline callback storage. Sized so the protocol's hottest closures
     * (a captured Msg plus a few pointers) avoid the heap fallback.
     */
    static constexpr std::size_t INLINE_BYTES = 192;
    /** Events per pool chunk. */
    static constexpr std::size_t CHUNK_EVENTS = 256;
    static constexpr std::size_t BITMAP_WORDS = WINDOW / 64;
    static constexpr Tick MAX_TICK = ~Tick{0};

    struct Event
    {
        Tick when;
        std::uint64_t seq;
        /** Run then destroy the stored callback. */
        void (*invoke)(Event *);
        /** Destroy the stored callback without running it. */
        void (*destroy)(Event *);
        /** Bucket FIFO link while pending, free-list link while free. */
        Event *next;
        alignas(std::max_align_t) unsigned char store[INLINE_BYTES];
    };

    /** FIFO of the pending events of one tick, in seq order. */
    struct Bucket
    {
        Event *head = nullptr;
        Event *tail = nullptr;
    };

    template <typename F>
    static void
    bindCallback(Event *e, F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= INLINE_BYTES &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            new (static_cast<void *>(e->store)) Fn(std::forward<F>(f));
            e->invoke = [](Event *ev) {
                Fn *fn = std::launder(
                    reinterpret_cast<Fn *>(ev->store));
                (*fn)();
                fn->~Fn();
            };
            e->destroy = [](Event *ev) {
                std::launder(reinterpret_cast<Fn *>(ev->store))->~Fn();
            };
        } else {
            // Oversized callback: one owned heap allocation.
            new (static_cast<void *>(e->store))
                Fn *(new Fn(std::forward<F>(f)));
            e->invoke = [](Event *ev) {
                Fn *fn = *std::launder(
                    reinterpret_cast<Fn **>(ev->store));
                (*fn)();
                delete fn;
            };
            e->destroy = [](Event *ev) {
                delete *std::launder(
                    reinterpret_cast<Fn **>(ev->store));
            };
        }
    }

    /** True if event @p a fires after event @p b. */
    static bool
    later(const Event *a, const Event *b)
    {
        if (a->when != b->when)
            return a->when > b->when;
        return a->seq > b->seq;
    }

    /** Append @p e to its tick's bucket; its tick is in the window. */
    void
    append(Event *e)
    {
        std::size_t slot = e->when & (WINDOW - 1);
        Bucket &b = _ring[slot];
        e->next = nullptr;
        if (b.tail != nullptr) {
            b.tail->next = e;
        } else {
            b.head = e;
            _occupied[slot / 64] |= std::uint64_t{1} << (slot % 64);
        }
        b.tail = e;
        ++_near;
    }

    /**
     * Run the next event if it is due at or before @p limit.
     * @return false if none is.
     */
    bool stepUpTo(Tick limit);
    /** Bucket slot of the earliest in-window event; requires _near. */
    std::size_t nextSlot() const;
    /**
     * Move the clock to @p t: deliver sampler boundaries up to @p t,
     * then pull the far events now inside the window into their
     * buckets in (when, seq) order.
     */
    void advanceTo(Tick t);

    Event *allocate();
    void release(Event *e);
    void farPush(Event *e);
    Event *farPop();

    /** Per-tick buckets for [_now, _now + WINDOW), indexed by tick. */
    std::array<Bucket, WINDOW> _ring{};
    /** Bit per ring slot: set while its bucket is non-empty. */
    std::array<std::uint64_t, BITMAP_WORDS> _occupied{};
    /** Events in the ring. */
    std::size_t _near = 0;
    /** Events in the ring and the far heap. */
    std::size_t _pending = 0;
    /** Min-heap by (when, seq) of events at or after _now + WINDOW. */
    std::vector<Event *> _far;
    /** Pool chunks; event addresses are stable for their lifetime. */
    std::vector<std::unique_ptr<Event[]>> _chunks;
    /** Recycled events ready for reuse. */
    Event *_free = nullptr;
    /** Events handed out of the newest chunk so far. */
    std::size_t _chunk_used = CHUNK_EVENTS;

    Tick _now = 0;
    std::uint64_t _next_seq = 0;
    std::uint64_t _executed = 0;

    /** @name Telemetry sampling hook (0 = no sampler attached). @{ */
    Tick _sample_period = 0;
    Tick _next_sample = 0;
    SamplerFn _sampler;
    /** @} */
};

} // namespace dsm

#endif // DSM_SIM_EVENT_QUEUE_HH
