#include "sim/event_queue.hh"

#include <bit>

namespace dsm {

EventQueue::~EventQueue()
{
    // Destroy the callbacks of events that never fired; the pool chunks
    // themselves are released by the unique_ptrs.
    for (Bucket &b : _ring) {
        for (Event *e = b.head; e != nullptr;) {
            Event *next = e->next;
            e->destroy(e);
            e = next;
        }
    }
    for (Event *e : _far)
        e->destroy(e);
}

EventQueue::Event *
EventQueue::allocate()
{
    if (_free != nullptr) {
        Event *e = _free;
        _free = e->next;
        return e;
    }
    if (_chunk_used == CHUNK_EVENTS) {
        _chunks.push_back(std::make_unique<Event[]>(CHUNK_EVENTS));
        _chunk_used = 0;
    }
    return &_chunks.back()[_chunk_used++];
}

void
EventQueue::release(Event *e)
{
    e->next = _free;
    _free = e;
}

void
EventQueue::farPush(Event *e)
{
    std::size_t i = _far.size();
    _far.push_back(e);
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!later(_far[parent], e))
            break;
        _far[i] = _far[parent];
        i = parent;
    }
    _far[i] = e;
}

EventQueue::Event *
EventQueue::farPop()
{
    Event *top = _far.front();
    Event *e = _far.back();
    _far.pop_back();
    std::size_t n = _far.size();
    if (n == 0)
        return top;
    std::size_t i = 0;
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && later(_far[child], _far[child + 1]))
            ++child;
        if (!later(e, _far[child]))
            break;
        _far[i] = _far[child];
        i = child;
    }
    _far[i] = e;
    return top;
}

std::size_t
EventQueue::nextSlot() const
{
    // Slots in circular order from _now's slot are ticks in time order.
    std::size_t start = _now & (WINDOW - 1);
    std::size_t w = start / 64;
    std::uint64_t bits = _occupied[w] & (~std::uint64_t{0} << (start % 64));
    for (std::size_t i = 0; i <= BITMAP_WORDS; ++i) {
        if (bits != 0)
            return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        w = (w + 1) % BITMAP_WORDS;
        bits = _occupied[w];
    }
    dsm_panic("event ring occupancy out of sync");
}

void
EventQueue::advanceTo(Tick t)
{
    if (_sample_period != 0) {
        for (; _next_sample <= t; _next_sample += _sample_period)
            _sampler(_next_sample);
    }
    _now = t;
    while (!_far.empty() && _far.front()->when - _now < WINDOW)
        append(farPop());
}

bool
EventQueue::step()
{
    if (_near == 0) {
        if (_far.empty())
            return false;
        advanceTo(_far.front()->when);
    }
    std::size_t slot = nextSlot();
    Bucket &b = _ring[slot];
    Event *e = b.head;
    dsm_assert(e->when >= _now, "event queue time went backwards");
    b.head = e->next;
    if (b.head == nullptr) {
        b.tail = nullptr;
        _occupied[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    }
    --_near;
    --_pending;
    if (e->when != _now)
        advanceTo(e->when);
    ++_executed;
    ++_dispatched;
    // The callback may schedule new events (allocating from the pool);
    // this event is released only after it finishes running.
    e->invoke(e);
    release(e);
    return true;
}

void
EventQueue::steps(std::uint64_t n, const std::function<bool()> &more)
{
    _limit = _executed + n;
    _chunk = n;
    _more = &more;
    while (_executed < _limit && step()) {
    }
    _more = nullptr;
    _limit = ~std::uint64_t{0};
}

bool
EventQueue::admit(std::uint64_t m)
{
    std::uint64_t room = _limit - _executed;
    if (m <= room)
        return true;
    if (_more == nullptr || !(*_more)())
        return false;
    // The test reads the same at every boundary the m events cross.
    _limit += (m - room + _chunk - 1) / _chunk * _chunk;
    return true;
}

} // namespace dsm
