/** @file Unit tests for the discrete-event queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"

using namespace dsm;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(2, [&] {
            ++fired;
            eq.scheduleIn(3, [&] { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(7, [&] { eq.scheduleIn(5, [&] { seen = eq.now(); }); });
    eq.run();
    EXPECT_EQ(seen, 12u);
}

TEST(EventQueue, FarEventRunsBeforeLaterInsertAtSameTick)
{
    // Across the bucket window's horizon: a far event at T waits in the
    // far heap, the clock reaching T - 1 brings T inside the window
    // without running it, and an event scheduled for T afterwards (by
    // the event at T - 1) runs after it.
    EventQueue eq;
    const Tick t = 3 * EventQueue::WINDOW + 7;
    std::vector<int> order;
    eq.schedule(t, [&] { order.push_back(1); });
    eq.schedule(t + EventQueue::WINDOW, [&] { order.push_back(3); });
    eq.schedule(t - 1, [&] {
        eq.schedule(t, [&] { order.push_back(2); });
    });
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(eq.now(), t - 1);
    EXPECT_TRUE(order.empty());
    ASSERT_TRUE(eq.step());
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(eq.now(), t);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(1, [] {});
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 5u);
}

/**
 * An event standing for five logical ones, the way a spin group stands
 * for its members: its dispatch counts the first, and it credits each
 * later one once admit() lets it.
 */
struct FiveInOne
{
    EventQueue &eq;
    std::vector<int> &order;
    int done = 0;

    void
    fire()
    {
        for (bool counted = true; done < 5; counted = false) {
            if (!counted) {
                if (!eq.admit(1)) {
                    eq.requeueFront([this] { fire(); });
                    return;
                }
                eq.credit(1);
            }
            order.push_back(10 + done++);
        }
    }
};

TEST(EventQueue, ChunkBoundaryInsideAnEventKeepsItsPlace)
{
    // The boundary test fails: the event stops at the boundary and its
    // remainder runs first when the next chunk starts, ahead of the
    // event scheduled after it at the same tick.
    EventQueue eq;
    std::vector<int> order;
    FiveInOne five{eq, order};
    eq.schedule(3, [&five] { five.fire(); });
    eq.schedule(3, [&order] { order.push_back(99); });
    EXPECT_EQ(eq.lastSeq(), 1u);
    const std::function<bool()> stop = [] { return false; };
    eq.steps(2, stop);
    EXPECT_EQ(order, (std::vector<int>{10, 11}));
    EXPECT_EQ(eq.eventsExecuted(), 2u);
    EXPECT_EQ(eq.eventsDispatched(), 1u);
    EXPECT_EQ(eq.lastSeq(), 1u); // the remainder took no seq
    eq.steps(64, stop);
    EXPECT_EQ(order, (std::vector<int>{10, 11, 12, 13, 14, 99}));
    EXPECT_EQ(eq.eventsExecuted(), 6u);
    EXPECT_EQ(eq.eventsDispatched(), 3u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ChunkBoundaryInsideAnEventPassesWhenTheTestDoes)
{
    // The boundary test passes: the event runs on, and the chunk ends
    // at the first boundary after it, on the chunk's own grid.
    EventQueue eq;
    std::vector<int> order;
    FiveInOne five{eq, order};
    eq.schedule(3, [&five] { five.fire(); });
    eq.schedule(3, [&order] { order.push_back(99); });
    eq.schedule(4, [&order] { order.push_back(100); });
    const std::function<bool()> go = [] { return true; };
    eq.steps(2, go);
    EXPECT_EQ(order, (std::vector<int>{10, 11, 12, 13, 14, 99}));
    EXPECT_EQ(eq.eventsExecuted(), 6u);
    EXPECT_EQ(eq.eventsDispatched(), 2u);
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 7u);
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "scheduling into the past");
}

// The pooled intrusive-event queue must preserve the exact (tick, FIFO
// within a tick) execution order of the original heap-of-std::function
// design. This drives a pseudo-random schedule and checks it against a
// stable-sort reference model.
TEST(EventQueuePool, MatchesReferenceOrderUnderRandomSchedule)
{
    // Delays reach 3x the bucket window, so events land in the ring and
    // in the far heap, and every third event schedules another from
    // inside its callback (re-entrant near and far inserts). The
    // reference is a (tick, seq)-ordered set driven the same way.
    constexpr Tick SPAN = 3 * EventQueue::WINDOW;
    struct Driver
    {
        std::uint64_t lcg = 12345;
        int next_id = 0;
        int spawned = 0;

        Tick
        draw()
        {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            return (lcg >> 33) % SPAN;
        }
        bool
        spawns(int id)
        {
            return id % 3 == 0 && spawned++ < 1500;
        }
    };

    EventQueue eq;
    Driver d;
    std::vector<int> fired;
    std::function<void(Tick, int)> add = [&](Tick when, int id) {
        eq.schedule(when, [&, id] {
            fired.push_back(id);
            if (d.spawns(id))
                add(eq.now() + d.draw(), d.next_id++);
        });
    };
    for (int i = 0; i < 2000; ++i)
        add(d.draw(), d.next_id++);
    eq.run();

    Driver rd;
    std::set<std::tuple<Tick, std::uint64_t, int>> ref;
    std::uint64_t seq = 0;
    for (int i = 0; i < 2000; ++i)
        ref.insert({rd.draw(), seq++, rd.next_id++});
    std::vector<int> expect;
    while (!ref.empty()) {
        auto [when, s, id] = *ref.begin();
        ref.erase(ref.begin());
        expect.push_back(id);
        if (rd.spawns(id))
            ref.insert({when + rd.draw(), seq++, rd.next_id++});
    }

    ASSERT_EQ(fired.size(), expect.size());
    EXPECT_EQ(fired.size(), 3000u);
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(fired[i], expect[i]) << "at position " << i;
}

// Free-list reuse: events scheduled from inside callbacks reuse pooled
// storage across many waves without disturbing ordering.
TEST(EventQueuePool, ReentrantSchedulingReusesEventsSafely)
{
    EventQueue eq;
    int waves = 0;
    std::vector<int> order;
    std::function<void()> wave = [&] {
        if (++waves > 200)
            return;
        // Schedule several same-tick events plus the next wave; the
        // same-tick events must fire in FIFO order every wave.
        for (int i = 0; i < 8; ++i)
            eq.scheduleIn(1, [&order, i] { order.push_back(i); });
        eq.scheduleIn(2, [&] { wave(); });
    };
    eq.schedule(0, [&] { wave(); });
    eq.run();
    EXPECT_EQ(waves, 201);
    ASSERT_EQ(order.size(), 200u * 8u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], static_cast<int>(i % 8));
}

// Callbacks larger than the inline small-buffer store must fall back to
// the heap and still run correctly in order.
TEST(EventQueuePool, LargeCallbacksFallBackToHeap)
{
    EventQueue eq;
    struct Big
    {
        char payload[512];
    };
    Big big{};
    big.payload[0] = 42;
    big.payload[511] = 7;
    std::vector<int> seen;
    eq.schedule(2, [big, &seen] {
        seen.push_back(big.payload[0] + big.payload[511]);
    });
    eq.schedule(1, [big, &seen] {
        seen.push_back(big.payload[511]);
    });
    eq.run();
    EXPECT_EQ(seen, (std::vector<int>{7, 49}));
}

// Pending events that never fire (queue destroyed first) must not leak
// their callbacks; exercised under ASan/valgrind builds, and here it at
// least must not crash.
TEST(EventQueuePool, DestroysPendingCallbacks)
{
    auto guard = std::make_shared<int>(5);
    std::weak_ptr<int> watch = guard;
    {
        EventQueue eq;
        eq.schedule(1, [guard] { (void)*guard; });
        // One in the far heap, beyond the bucket window.
        eq.schedule(5 * EventQueue::WINDOW, [guard] { (void)*guard; });
        guard.reset();
        EXPECT_FALSE(watch.expired());
        EXPECT_EQ(eq.pending(), 2u);
    }
    EXPECT_TRUE(watch.expired());
}
