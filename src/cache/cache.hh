/**
 * @file
 * Set-associative write-back cache with 32-byte blocks.
 *
 * Line states follow the DASH protocol: INVALID, SHARED (read-only,
 * memory current), EXCLUSIVE (this cache owns the only copy; treated as
 * potentially dirty, so evictions of EXCLUSIVE lines always write back).
 *
 * Each cache also holds the processor's load_linked reservation (one
 * reservation bit plus a reservation address register, as on the MIPS
 * R4000 and in Section 3.1).
 */

#ifndef DSM_CACHE_CACHE_HH
#define DSM_CACHE_CACHE_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "sim/types.hh"

namespace dsm {

/** Stable cache-line states. */
enum class LineState
{
    INVALID,
    SHARED,
    EXCLUSIVE,
};

const char *toString(LineState s);

/** One cache line. */
struct CacheLine
{
    Addr base = 0; ///< block base address
    LineState state = LineState::INVALID;
    std::array<Word, BLOCK_WORDS> data{};
    std::uint64_t lru = 0; ///< last-touch stamp

    bool valid() const { return state != LineState::INVALID; }

    Word
    readWord(Addr a) const
    {
        return data[wordInBlock(a)];
    }

    void
    writeWord(Addr a, Word v)
    {
        data[wordInBlock(a)] = v;
    }
};

// A set is built by value-initializing its lines in place, and copied
// and dropped without constructors or destructors.
static_assert(std::is_trivially_copyable_v<CacheLine> &&
              std::is_trivially_destructible_v<CacheLine>);

/** An evicted line that needs further handling by the controller. */
struct Victim
{
    bool valid = false;
    Addr base = 0;
    LineState state = LineState::INVALID;
    std::array<Word, BLOCK_WORDS> data{};
};

/** Per-cache statistics. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations_received = 0;
};

/**
 * The cache proper. The controller is responsible for coherence actions;
 * the cache only tracks state, data, and replacement.
 *
 * Sets are built on first touch: only allocate() writes a set's lines,
 * and a set it never built reads as all-invalid without being read.
 * A line never moves, so a CacheLine * stays valid for the cache's
 * lifetime.
 */
class Cache
{
  public:
    /**
     * @param sets Number of sets (power of two).
     * @param ways Associativity.
     */
    Cache(unsigned sets, unsigned ways);

    /** A copy holds the built sets only, in one allocation. */
    Cache(const Cache &o);
    Cache &operator=(const Cache &o);
    Cache(Cache &&) noexcept = default;
    Cache &operator=(Cache &&) noexcept = default;

    /** Find the line holding @p a; nullptr on miss. Updates LRU. */
    CacheLine *lookup(Addr a);

    /** Find without disturbing replacement state. */
    const CacheLine *peek(Addr a) const;

    /**
     * Account @p n lookups that hit @p line, as if made now: each takes
     * the next LRU stamp.
     */
    void
    restamp(CacheLine &line, std::uint64_t n)
    {
        _stamp += n;
        line.lru = _stamp;
    }

    /** State of the block holding @p a (INVALID on miss); no LRU touch. */
    LineState
    stateOf(Addr a) const
    {
        const CacheLine *l = peek(a);
        return l == nullptr ? LineState::INVALID : l->state;
    }

    /**
     * Allocate a line for the block containing @p a, evicting the LRU
     * way if the set is full. The allocated line is returned in INVALID
     * state; the caller fills state and data.
     * @param victim Receives the evicted line, if any.
     */
    CacheLine *allocate(Addr a, Victim *victim);

    /** Drop the line holding @p a, if present. */
    void invalidate(Addr a);

    /** Total lines currently valid. */
    unsigned validLines() const;

    /** @name Load-linked reservation (one per cache). @{ */
    bool reservationValid() const { return _resv_valid; }
    Addr reservationAddr() const { return _resv_addr; }
    /** Tick the reservation was set at (faults.resv_max_age aging). */
    Tick reservationTick() const { return _resv_tick; }

    void
    setReservation(Addr a, Tick now = 0)
    {
        _resv_valid = true;
        _resv_addr = blockBase(a);
        _resv_tick = now;
    }

    void clearReservation() { _resv_valid = false; }

    /** Clear the reservation if it covers the block containing @p a. */
    void
    clearReservationIfCovers(Addr a)
    {
        if (_resv_valid && _resv_addr == blockBase(a))
            _resv_valid = false;
    }
    /** @} */

    CacheStats &stats() { return _stats; }
    const CacheStats &stats() const { return _stats; }

    /**
     * Call @p f on each line of every set built so far, valid or not,
     * set-major. The sets never built hold no valid line.
     */
    template <class F>
    void
    forEachLine(F &&f) const
    {
        forEachBuiltSet([&](unsigned s) {
            const CacheLine *set = setLines(s);
            for (unsigned w = 0; w < _ways; ++w)
                f(set[w]);
        });
    }

  private:
    unsigned setIndex(Addr a) const;

    /** Call @p f with the index of every built set, in order. */
    template <class F>
    void
    forEachBuiltSet(F &&f) const
    {
        for (unsigned i = 0; i < bitmapWords(); ++i)
            for (std::uint64_t b = bitmap()[i]; b != 0; b &= b - 1)
                f(i * 64 + static_cast<unsigned>(std::countr_zero(b)));
    }

    unsigned bitmapWords() const { return (_sets + 63) / 64; }

    std::size_t
    storageBytes() const
    {
        return bitmapWords() * sizeof(std::uint64_t) +
               std::size_t{_sets} * _ways * sizeof(CacheLine);
    }

    std::uint64_t *
    bitmap() const
    {
        return reinterpret_cast<std::uint64_t *>(_mem.get());
    }

    bool
    built(unsigned s) const
    {
        return (bitmap()[s / 64] >> (s % 64)) & 1;
    }

    /** The @p _ways line slots of set @p s, built or not. */
    CacheLine *
    setLines(unsigned s) const
    {
        return reinterpret_cast<CacheLine *>(bitmap() + bitmapWords()) +
               std::size_t{s} * _ways;
    }

    unsigned _sets;
    unsigned _ways;
    /**
     * The whole cache in one allocation: the bitmap of built sets, one
     * bit per set, then sets * ways line slots, set-major. A set's
     * slots are neither read nor written until allocate() builds it.
     */
    std::unique_ptr<std::byte[]> _mem;
    std::uint64_t _stamp = 0;

    bool _resv_valid = false;
    Addr _resv_addr = 0;
    Tick _resv_tick = 0;

    CacheStats _stats;
};

} // namespace dsm

#endif // DSM_CACHE_CACHE_HH
