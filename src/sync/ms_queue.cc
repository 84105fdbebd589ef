#include "sync/ms_queue.hh"

#include "cpu/system.hh"
#include "sim/logging.hh"

namespace dsm {

namespace {

/**
 * Counted pointers for the non-blocking queue: the low bits hold a node
 * index + 1 (0 = nil), the high bits a modification count -- the same
 * idea as the paper's serial numbers (Section 3.1), applied per word.
 */
constexpr Word IDX_BITS = 20;
constexpr Word IDX_MASK = (Word{1} << IDX_BITS) - 1;

int
idxOf(Word ptr)
{
    return static_cast<int>(ptr & IDX_MASK) - 1;
}

Word
makePtr(Word count, int idx)
{
    return (count << IDX_BITS) |
           static_cast<Word>(static_cast<unsigned>(idx + 1));
}

Word
countOf(Word ptr)
{
    return ptr >> IDX_BITS;
}

/** A pointer with the same target but a bumped modification count. */
Word
advance(Word old_ptr, int new_idx)
{
    return makePtr(countOf(old_ptr) + 1, new_idx);
}

} // namespace

// ===================== TwoLockQueue ====================================

TwoLockQueue::TwoLockQueue(System &sys, Primitive prim, int capacity)
    : _sys(sys),
      _head_lock(sys, prim),
      _tail_lock(sys, prim),
      _free_lock(sys, prim),
      _prim(prim)
{
    dsm_assert(capacity >= 1, "queue needs capacity");
    _head = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    _tail = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    _free = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    int nodes = capacity + 1; // plus the dummy
    for (int i = 0; i < nodes; ++i) {
        Addr block = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
        _next.push_back(block);
        _value.push_back(block + WORD_BYTES);
    }
    // Node 0 is the initial dummy; 1..capacity sit on the free list.
    sys.writeInit(_head, 1);
    sys.writeInit(_tail, 1);
    sys.writeInit(_free, nodes > 1 ? 2 : 0);
    for (int i = 1; i < nodes; ++i)
        sys.writeInit(_next[static_cast<std::size_t>(i)],
                      i + 1 < nodes ? static_cast<Word>(i) + 2 : 0);
}

CoTask<int>
TwoLockQueue::allocNode(Proc &p)
{
    co_await _free_lock.acquire(p);
    Word f = (co_await p.load(_free)).value;
    if (f == 0) {
        co_await _free_lock.release(p);
        co_return -1;
    }
    Word nf = (co_await p.load(
                   _next[static_cast<std::size_t>(f - 1)])).value;
    co_await p.store(_free, nf);
    co_await _free_lock.release(p);
    co_return static_cast<int>(f) - 1;
}

CoTask<void>
TwoLockQueue::freeNode(Proc &p, int node)
{
    co_await _free_lock.acquire(p);
    Word f = (co_await p.load(_free)).value;
    co_await p.store(_next[static_cast<std::size_t>(node)], f);
    co_await p.store(_free, static_cast<Word>(node) + 1);
    co_await _free_lock.release(p);
}

CoTask<bool>
TwoLockQueue::enqueue(Proc &p, Word value)
{
    int n = co_await allocNode(p);
    if (n < 0)
        co_return false;
    co_await p.store(_value[static_cast<std::size_t>(n)], value);
    co_await p.store(_next[static_cast<std::size_t>(n)], 0);

    co_await _tail_lock.acquire(p);
    Word t = (co_await p.load(_tail)).value;
    co_await p.store(_next[static_cast<std::size_t>(t - 1)],
                     static_cast<Word>(n) + 1);
    co_await p.store(_tail, static_cast<Word>(n) + 1);
    co_await _tail_lock.release(p);
    co_return true;
}

CoTask<bool>
TwoLockQueue::dequeue(Proc &p, Word *out)
{
    co_await _head_lock.acquire(p);
    Word h = (co_await p.load(_head)).value;
    Word nxt = (co_await p.load(
                    _next[static_cast<std::size_t>(h - 1)])).value;
    if (nxt == 0) {
        co_await _head_lock.release(p);
        co_return false;
    }
    *out = (co_await p.load(
                _value[static_cast<std::size_t>(nxt - 1)])).value;
    co_await p.store(_head, nxt);
    co_await _head_lock.release(p);
    // The old dummy returns to the pool; nxt is the new dummy.
    co_await freeNode(p, static_cast<int>(h) - 1);
    co_return true;
}

// ===================== NonBlockingQueue ================================

NonBlockingQueue::NonBlockingQueue(System &sys, int capacity)
    : _sys(sys),
      _head(sys.allocSync()),
      _tail(sys.allocSync()),
      _free_head(sys.allocSync())
{
    dsm_assert(capacity >= 1, "queue needs capacity");
    int nodes = capacity + 1;
    dsm_assert(nodes < static_cast<int>(IDX_MASK), "capacity too large");
    for (int i = 0; i < nodes; ++i) {
        Addr block = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
        _next.push_back(block);
        _value.push_back(block + WORD_BYTES);
    }
    // Node 0 is the dummy; 1..capacity chain onto the free list.
    sys.writeInit(_head, makePtr(0, 0));
    sys.writeInit(_tail, makePtr(0, 0));
    sys.writeInit(_next[0], makePtr(0, -1));
    sys.writeInit(_free_head, makePtr(0, nodes > 1 ? 1 : -1));
    for (int i = 1; i < nodes; ++i)
        sys.writeInit(_next[static_cast<std::size_t>(i)],
                      makePtr(0, i + 1 < nodes ? i + 1 : -1));
}

CoTask<int>
NonBlockingQueue::allocNode(Proc &p)
{
    for (;;) {
        Word f = (co_await p.load(_free_head)).value;
        int fi = idxOf(f);
        if (fi < 0)
            co_return -1; // pool exhausted
        Word fn = (co_await p.load(
                       _next[static_cast<std::size_t>(fi)])).value;
        if ((co_await p.cas(_free_head, f, advance(f, idxOf(fn))))
                .success)
            co_return fi;
    }
}

CoTask<void>
NonBlockingQueue::freeNode(Proc &p, int node)
{
    for (;;) {
        Word f = (co_await p.load(_free_head)).value;
        Word old_next = (co_await p.load(
                             _next[static_cast<std::size_t>(node)]))
                            .value;
        co_await p.store(_next[static_cast<std::size_t>(node)],
                         advance(old_next, idxOf(f)));
        if ((co_await p.cas(_free_head, f, advance(f, node))).success)
            co_return;
    }
}

CoTask<bool>
NonBlockingQueue::enqueue(Proc &p, Word value)
{
    int n = co_await allocNode(p);
    if (n < 0)
        co_return false;
    co_await p.store(_value[static_cast<std::size_t>(n)], value);
    Word old_next =
        (co_await p.load(_next[static_cast<std::size_t>(n)])).value;
    co_await p.store(_next[static_cast<std::size_t>(n)],
                     advance(old_next, -1)); // counted nil

    Word t = 0;
    for (;;) {
        t = (co_await p.load(_tail)).value;
        int ti = idxOf(t);
        Word nxt = (co_await p.load(
                        _next[static_cast<std::size_t>(ti)])).value;
        // Is our snapshot still consistent?
        OpResult again = co_await p.load(_tail);
        if (again.value != t)
            continue;
        if (idxOf(nxt) < 0) {
            // Tail really is last: try to link our node after it.
            if ((co_await p.cas(_next[static_cast<std::size_t>(ti)],
                                nxt, advance(nxt, n)))
                    .success)
                break;
        } else {
            // Tail is lagging: help swing it forward.
            co_await p.cas(_tail, t, advance(t, idxOf(nxt)));
        }
    }
    // Swing the tail to our node (may fail if someone helped already).
    co_await p.cas(_tail, t, advance(t, n));
    co_return true;
}

CoTask<bool>
NonBlockingQueue::dequeue(Proc &p, Word *out)
{
    for (;;) {
        Word h = (co_await p.load(_head)).value;
        Word t = (co_await p.load(_tail)).value;
        Word nxt = (co_await p.load(
                        _next[static_cast<std::size_t>(idxOf(h))]))
                       .value;
        OpResult again = co_await p.load(_head);
        if (again.value != h)
            continue;
        if (idxOf(h) == idxOf(t)) {
            if (idxOf(nxt) < 0)
                co_return false; // empty
            // Tail lagging behind head: help it.
            co_await p.cas(_tail, t, advance(t, idxOf(nxt)));
        } else {
            if (idxOf(nxt) < 0)
                continue; // transient view
            Word v = (co_await p.load(
                          _value[static_cast<std::size_t>(idxOf(nxt))]))
                         .value;
            if ((co_await p.cas(_head, h, advance(h, idxOf(nxt))))
                    .success) {
                *out = v;
                co_await freeNode(p, idxOf(h));
                co_return true;
            }
        }
    }
}

} // namespace dsm
