#include "cache/cache.hh"

#include "sim/logging.hh"

namespace dsm {

const char *
toString(LineState s)
{
    switch (s) {
      case LineState::INVALID: return "Invalid";
      case LineState::SHARED: return "Shared";
      case LineState::EXCLUSIVE: return "Exclusive";
    }
    return "?";
}

Cache::Cache(unsigned sets, unsigned ways) : _sets(sets), _ways(ways)
{
    dsm_assert(sets > 0 && (sets & (sets - 1)) == 0,
               "sets must be a power of two");
    dsm_assert(ways > 0, "ways must be nonzero");
    _mem.reset(new std::byte[storageBytes()]);
    std::uninitialized_fill_n(bitmap(), bitmapWords(), 0);
}

Cache::Cache(const Cache &o)
    : _sets(o._sets), _ways(o._ways),
      _mem(new std::byte[o.storageBytes()]), _stamp(o._stamp),
      _resv_valid(o._resv_valid), _resv_addr(o._resv_addr),
      _resv_tick(o._resv_tick), _stats(o._stats)
{
    std::uninitialized_copy_n(o.bitmap(), bitmapWords(), bitmap());
    o.forEachBuiltSet([&](unsigned s) {
        std::uninitialized_copy_n(o.setLines(s), _ways, setLines(s));
    });
}

Cache &
Cache::operator=(const Cache &o)
{
    if (this != &o)
        *this = Cache(o);
    return *this;
}

unsigned
Cache::setIndex(Addr a) const
{
    return static_cast<unsigned>((a / BLOCK_BYTES) & (_sets - 1));
}

CacheLine *
Cache::lookup(Addr a)
{
    unsigned s = setIndex(a);
    if (!built(s))
        return nullptr;
    Addr base = blockBase(a);
    CacheLine *set = setLines(s);
    for (unsigned w = 0; w < _ways; ++w) {
        CacheLine &line = set[w];
        if (line.valid() && line.base == base) {
            line.lru = ++_stamp;
            return &line;
        }
    }
    return nullptr;
}

const CacheLine *
Cache::peek(Addr a) const
{
    unsigned s = setIndex(a);
    if (!built(s))
        return nullptr;
    Addr base = blockBase(a);
    const CacheLine *set = setLines(s);
    for (unsigned w = 0; w < _ways; ++w) {
        const CacheLine &line = set[w];
        if (line.valid() && line.base == base)
            return &line;
    }
    return nullptr;
}

CacheLine *
Cache::allocate(Addr a, Victim *victim)
{
    Addr base = blockBase(a);
    unsigned s = setIndex(a);
    dsm_assert(peek(a) == nullptr,
               "allocate of already-present block %#llx",
               static_cast<unsigned long long>(base));

    CacheLine *set = setLines(s);
    if (!built(s)) {
        std::uninitialized_value_construct_n(set, _ways);
        bitmap()[s / 64] |= std::uint64_t{1} << (s % 64);
    }
    CacheLine *choice = nullptr;
    for (unsigned w = 0; w < _ways; ++w) {
        CacheLine &line = set[w];
        if (!line.valid()) {
            choice = &line;
            break;
        }
        if (choice == nullptr || line.lru < choice->lru)
            choice = &line;
    }

    if (victim != nullptr)
        victim->valid = false;
    if (choice->valid()) {
        ++_stats.evictions;
        clearReservationIfCovers(choice->base);
        if (victim != nullptr) {
            victim->valid = true;
            victim->base = choice->base;
            victim->state = choice->state;
            victim->data = choice->data;
        }
    }

    choice->base = base;
    choice->state = LineState::INVALID;
    choice->data.fill(0);
    choice->lru = ++_stamp;
    return choice;
}

void
Cache::invalidate(Addr a)
{
    Addr base = blockBase(a);
    clearReservationIfCovers(base);
    unsigned s = setIndex(a);
    if (!built(s))
        return;
    CacheLine *set = setLines(s);
    for (unsigned w = 0; w < _ways; ++w) {
        CacheLine &line = set[w];
        if (line.valid() && line.base == base) {
            line.state = LineState::INVALID;
            return;
        }
    }
}

unsigned
Cache::validLines() const
{
    unsigned n = 0;
    forEachLine([&n](const CacheLine &line) { n += line.valid(); });
    return n;
}

} // namespace dsm
