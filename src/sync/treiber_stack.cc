#include "sync/treiber_stack.hh"

#include "cpu/system.hh"
#include "sim/logging.hh"

namespace dsm {

TreiberStack::TreiberStack(System &sys, Primitive prim, int pool_size)
    : _prim(prim), _head(sys.allocSync())
{
    dsm_assert(prim != Primitive::FAP,
               "fetch_and_Phi cannot implement a lock-free stack");
    _next.reserve(pool_size);
    _value.reserve(pool_size);
    for (int i = 0; i < pool_size; ++i) {
        Addr block = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
        _next.push_back(block);
        _value.push_back(block + WORD_BYTES);
    }
}

CoTask<void>
TreiberStack::push(Proc &p, int node_id, Word value)
{
    co_await p.store(_value[node_id], value);
    if (_prim == Primitive::CAS) {
        for (;;) {
            Word h = (co_await p.load(_head)).value;
            co_await p.store(_next[node_id], h);
            if ((co_await p.cas(_head, h, encode(node_id))).success)
                co_return;
        }
    }
    for (;;) {
        Word h = (co_await p.ll(_head)).value;
        co_await p.store(_next[node_id], h);
        if ((co_await p.sc(_head, encode(node_id))).success)
            co_return;
    }
}

CoTask<int>
TreiberStack::pop(Proc &p)
{
    if (_prim == Primitive::CAS) {
        for (;;) {
            Word h = (co_await p.load(_head)).value;
            if (h == 0)
                co_return -1;
            Word next = (co_await p.load(_next[decode(h)])).value;
            // ABA hazard: if the node was popped and pushed back between
            // the load and this CAS, the CAS wrongly succeeds with a
            // stale `next` (Section 2.2's pointer problem).
            if ((co_await p.cas(_head, h, next)).success)
                co_return decode(h);
        }
    }
    for (;;) {
        Word h = (co_await p.ll(_head)).value;
        if (h == 0)
            co_return -1;
        Word next = (co_await p.load(_next[decode(h)])).value;
        // The reservation protects us: any intervening write to the head
        // makes the store_conditional fail.
        if ((co_await p.sc(_head, next)).success)
            co_return decode(h);
    }
}

} // namespace dsm
