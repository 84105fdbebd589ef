/** @file Unit tests for the set-associative cache. */

#include <gtest/gtest.h>

#include <random>
#include <tuple>
#include <vector>

#include "cache/cache.hh"

using namespace dsm;

namespace {

std::array<Word, BLOCK_WORDS>
pattern(Word base)
{
    return {base, base + 1, base + 2, base + 3};
}

/** Every field of a line, comparable as one value. */
using LineImage = std::tuple<Addr, LineState, std::array<Word, BLOCK_WORDS>,
                             std::uint64_t>;

LineImage
imageOf(const CacheLine &l)
{
    return {l.base, l.state, l.data, l.lru};
}

/** The valid lines the visitor reaches, set-major. */
std::vector<LineImage>
validImages(const Cache &c)
{
    std::vector<LineImage> out;
    c.forEachLine([&out](const CacheLine &l) {
        if (l.valid())
            out.push_back(imageOf(l));
    });
    return out;
}

/** Number of line slots the visitor reaches (built sets x ways). */
unsigned
visitedLines(const Cache &c)
{
    unsigned n = 0;
    c.forEachLine([&n](const CacheLine &) { ++n; });
    return n;
}

/**
 * Reference model for the differential test: every set present from
 * the start, in one value-initialized array.
 */
class FullCache
{
  public:
    FullCache(unsigned sets, unsigned ways)
        : _sets(sets), _ways(ways), _lines(sets * ways)
    {}

    CacheLine *
    lookup(Addr a)
    {
        CacheLine *l = find(a);
        if (l != nullptr)
            l->lru = ++_stamp;
        return l;
    }

    CacheLine *
    find(Addr a)
    {
        CacheLine *set = &_lines[setIndex(a) * _ways];
        for (unsigned w = 0; w < _ways; ++w)
            if (set[w].valid() && set[w].base == blockBase(a))
                return &set[w];
        return nullptr;
    }

    void
    restamp(CacheLine &line, std::uint64_t n)
    {
        _stamp += n;
        line.lru = _stamp;
    }

    CacheLine *
    allocate(Addr a, Victim *victim)
    {
        CacheLine *set = &_lines[setIndex(a) * _ways];
        CacheLine *choice = nullptr;
        for (unsigned w = 0; w < _ways; ++w) {
            if (!set[w].valid()) {
                choice = &set[w];
                break;
            }
            if (choice == nullptr || set[w].lru < choice->lru)
                choice = &set[w];
        }
        victim->valid = choice->valid();
        if (choice->valid()) {
            ++evictions;
            clearReservationIfCovers(choice->base);
            victim->base = choice->base;
            victim->state = choice->state;
            victim->data = choice->data;
        }
        *choice = CacheLine{};
        choice->base = blockBase(a);
        choice->lru = ++_stamp;
        return choice;
    }

    void
    invalidate(Addr a)
    {
        clearReservationIfCovers(a);
        if (CacheLine *l = find(a))
            l->state = LineState::INVALID;
    }

    void
    clearReservationIfCovers(Addr a)
    {
        if (resv_valid && resv_addr == blockBase(a))
            resv_valid = false;
    }

    std::vector<LineImage>
    validImages() const
    {
        std::vector<LineImage> out;
        for (const CacheLine &l : _lines)
            if (l.valid())
                out.push_back(imageOf(l));
        return out;
    }

    bool resv_valid = false;
    Addr resv_addr = 0;
    std::uint64_t evictions = 0;

  private:
    unsigned
    setIndex(Addr a) const
    {
        return static_cast<unsigned>((a / BLOCK_BYTES) & (_sets - 1));
    }

    unsigned _sets;
    unsigned _ways;
    std::vector<CacheLine> _lines;
    std::uint64_t _stamp = 0;
};

} // namespace

TEST(Cache, MissOnEmpty)
{
    Cache c(8, 2);
    EXPECT_EQ(c.lookup(0x40), nullptr);
    EXPECT_EQ(c.peek(0x40), nullptr);
    EXPECT_EQ(c.validLines(), 0u);
}

TEST(Cache, AllocateAndLookup)
{
    Cache c(8, 2);
    Victim v;
    CacheLine *line = c.allocate(0x40, &v);
    EXPECT_FALSE(v.valid);
    line->state = LineState::SHARED;
    line->data = pattern(10);
    CacheLine *hit = c.lookup(0x48);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->readWord(0x48), 11u);
    EXPECT_EQ(c.validLines(), 1u);
}

TEST(Cache, WordReadWrite)
{
    Cache c(8, 2);
    CacheLine *line = c.allocate(0x100, nullptr);
    line->state = LineState::EXCLUSIVE;
    line->writeWord(0x110, 77);
    EXPECT_EQ(line->readWord(0x110), 77u);
    EXPECT_EQ(line->readWord(0x100), 0u);
}

TEST(Cache, LruEvictsColdestWay)
{
    Cache c(1, 2); // one set, two ways
    c.allocate(0x00, nullptr)->state = LineState::SHARED;
    c.allocate(0x20, nullptr)->state = LineState::SHARED;
    // Touch 0x00 so 0x20 becomes LRU.
    ASSERT_NE(c.lookup(0x00), nullptr);
    Victim v;
    c.allocate(0x40, &v);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.base, 0x20u);
    EXPECT_NE(c.peek(0x00), nullptr);
    EXPECT_EQ(c.peek(0x20), nullptr);
}

TEST(Cache, VictimCarriesStateAndData)
{
    Cache c(1, 1);
    CacheLine *line = c.allocate(0x40, nullptr);
    line->state = LineState::EXCLUSIVE;
    line->data = pattern(5);
    Victim v;
    c.allocate(0x60, &v);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.base, 0x40u);
    EXPECT_EQ(v.state, LineState::EXCLUSIVE);
    EXPECT_EQ(v.data, pattern(5));
    EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, InvalidateDropsLine)
{
    Cache c(8, 2);
    c.allocate(0x40, nullptr)->state = LineState::SHARED;
    c.invalidate(0x40);
    EXPECT_EQ(c.peek(0x40), nullptr);
    EXPECT_EQ(c.validLines(), 0u);
}

TEST(Cache, SetsAreIndependent)
{
    Cache c(2, 1);
    c.allocate(0x00, nullptr)->state = LineState::SHARED; // set 0
    c.allocate(0x20, nullptr)->state = LineState::SHARED; // set 1
    EXPECT_EQ(c.validLines(), 2u);
    EXPECT_NE(c.peek(0x00), nullptr);
    EXPECT_NE(c.peek(0x20), nullptr);
}

TEST(Cache, ReservationLifecycle)
{
    Cache c(8, 2);
    EXPECT_FALSE(c.reservationValid());
    c.setReservation(0x48);
    EXPECT_TRUE(c.reservationValid());
    EXPECT_EQ(c.reservationAddr(), 0x40u);
    c.clearReservation();
    EXPECT_FALSE(c.reservationValid());
}

TEST(Cache, ReservationClearedByCoveringInvalidate)
{
    Cache c(8, 2);
    c.allocate(0x40, nullptr)->state = LineState::SHARED;
    c.setReservation(0x40);
    c.invalidate(0x40);
    EXPECT_FALSE(c.reservationValid());
}

TEST(Cache, ReservationSurvivesOtherInvalidate)
{
    Cache c(8, 2);
    c.allocate(0x40, nullptr)->state = LineState::SHARED;
    c.allocate(0x80, nullptr)->state = LineState::SHARED;
    c.setReservation(0x40);
    c.invalidate(0x80);
    EXPECT_TRUE(c.reservationValid());
}

TEST(Cache, ReservationClearedByEviction)
{
    Cache c(1, 1);
    c.allocate(0x40, nullptr)->state = LineState::SHARED;
    c.setReservation(0x40);
    Victim v;
    c.allocate(0x60, &v);
    EXPECT_FALSE(c.reservationValid());
}

TEST(CacheDeath, DoubleAllocatePanics)
{
    Cache c(8, 2);
    c.allocate(0x40, nullptr)->state = LineState::SHARED;
    EXPECT_DEATH(c.allocate(0x40, nullptr), "already-present");
}

TEST(Cache, FreshCacheVisitsNoLine)
{
    Cache c(512, 2);
    EXPECT_EQ(visitedLines(c), 0u);
    // Misses on sets never built build nothing.
    EXPECT_EQ(c.lookup(0x40), nullptr);
    EXPECT_EQ(c.peek(0x3fe0), nullptr);
    c.invalidate(0x80);
    EXPECT_EQ(c.stateOf(0x100), LineState::INVALID);
    EXPECT_EQ(visitedLines(c), 0u);
    // The first allocate builds exactly its own set.
    c.allocate(0x3fe0, nullptr); // the last set
    EXPECT_EQ(visitedLines(c), 2u);
    EXPECT_EQ(c.validLines(), 0u); // allocated lines start INVALID
}

TEST(Cache, MatchesFullArrayReference)
{
    // A 512 x 2 cache against the full-array model, over a few sparse
    // sets (the first, the last, the last of the first bitmap word and
    // a random one) with more blocks each than ways, so evictions,
    // LRU order and reservations all come into play. Other sets are
    // only probed, never built.
    constexpr unsigned SETS = 512, WAYS = 2;
    std::mt19937_64 rng(31);
    for (int trial = 0; trial < 20; ++trial) {
        Cache c(SETS, WAYS);
        FullCache ref(SETS, WAYS);
        const unsigned hot[] = {0, SETS - 1, 63,
                                static_cast<unsigned>(rng() % SETS)};
        auto hotAddr = [&] {
            Addr set = hot[rng() % 4];
            Addr tag = rng() % 5;
            return (tag * SETS + set) * BLOCK_BYTES +
                   (rng() % BLOCK_WORDS) * WORD_BYTES;
        };
        auto anyAddr = [&] {
            return static_cast<Addr>(rng() % (8 * SETS)) * BLOCK_BYTES;
        };
        for (int step = 0; step < 400; ++step) {
            SCOPED_TRACE("trial " + std::to_string(trial) + " step " +
                         std::to_string(step));
            int op = static_cast<int>(rng() % 6);
            bool probe = op == 0 || op == 1 || op == 4;
            Addr a = probe && rng() % 4 == 0 ? anyAddr() : hotAddr();
            switch (op) {
              case 0: {
                CacheLine *got = c.lookup(a);
                CacheLine *want = ref.lookup(a);
                ASSERT_EQ(got == nullptr, want == nullptr);
                if (got != nullptr) {
                    EXPECT_EQ(imageOf(*got), imageOf(*want));
                    if (rng() % 2 == 0) {
                        std::uint64_t n = 1 + rng() % 9;
                        c.restamp(*got, n);
                        ref.restamp(*want, n);
                        EXPECT_EQ(got->lru, want->lru);
                    }
                }
                break;
              }
              case 1: {
                const CacheLine *got = c.peek(a);
                const CacheLine *want = ref.find(a);
                ASSERT_EQ(got == nullptr, want == nullptr);
                if (got != nullptr) {
                    EXPECT_EQ(imageOf(*got), imageOf(*want));
                }
                break;
              }
              case 2:
              case 3: {
                if (c.peek(a) != nullptr)
                    break;
                Victim vg, vw;
                CacheLine *got = c.allocate(a, &vg);
                CacheLine *want = ref.allocate(a, &vw);
                ASSERT_EQ(vg.valid, vw.valid);
                if (vg.valid) {
                    EXPECT_EQ(vg.base, vw.base);
                    EXPECT_EQ(vg.state, vw.state);
                    EXPECT_EQ(vg.data, vw.data);
                }
                EXPECT_EQ(imageOf(*got), imageOf(*want));
                LineState st = rng() % 2 ? LineState::SHARED
                                         : LineState::EXCLUSIVE;
                Word d = rng();
                got->state = want->state = st;
                got->data = want->data = pattern(d);
                break;
              }
              case 4:
                c.invalidate(a);
                ref.invalidate(a);
                break;
              case 5:
                if (rng() % 3 == 0) {
                    c.clearReservation();
                    ref.resv_valid = false;
                } else {
                    c.setReservation(a);
                    ref.resv_valid = true;
                    ref.resv_addr = blockBase(a);
                }
                break;
            }
            ASSERT_EQ(validImages(c), ref.validImages());
            EXPECT_EQ(c.validLines(), ref.validImages().size());
            EXPECT_EQ(c.reservationValid(), ref.resv_valid);
            if (ref.resv_valid) {
                EXPECT_EQ(c.reservationAddr(), ref.resv_addr);
            }
            EXPECT_EQ(c.stats().evictions, ref.evictions);
            // Only the hot sets were ever allocated into.
            EXPECT_LE(visitedLines(c), 4 * WAYS);
        }
    }
}

TEST(Cache, LinePointerSurvivesBuildingOtherSets)
{
    // A parked spin-wait keeps a CacheLine * across arbitrary traffic.
    Cache c(512, 2);
    CacheLine *first = c.allocate(0x40, nullptr); // set 2
    first->state = LineState::SHARED;
    first->data = pattern(40);
    CacheLine *line = c.lookup(0x40);
    ASSERT_EQ(line, first);
    for (Addr set = 3; set < 103; ++set)
        c.allocate(set * BLOCK_BYTES, nullptr)->state = LineState::SHARED;
    EXPECT_EQ(visitedLines(c), 101u * 2);
    EXPECT_EQ(c.lookup(0x40), line);
    EXPECT_EQ(line->base, 0x40u);
    EXPECT_EQ(line->state, LineState::SHARED);
    EXPECT_EQ(line->data, pattern(40));
}

TEST(Cache, CopyIsEqualAndIndependent)
{
    Cache src(512, 2);
    for (Addr set : {0u, 7u, 300u, 511u}) {
        CacheLine *l = src.allocate(set * BLOCK_BYTES, nullptr);
        l->state = LineState::EXCLUSIVE;
        l->data = pattern(set);
    }
    src.allocate(512 * BLOCK_BYTES, nullptr)->state = LineState::SHARED;
    ASSERT_NE(src.lookup(0), nullptr);
    src.setReservation(300 * BLOCK_BYTES, 9);
    const std::vector<LineImage> before = validImages(src);

    Cache copy = src;
    EXPECT_EQ(validImages(copy), before);
    EXPECT_EQ(visitedLines(copy), visitedLines(src));
    EXPECT_EQ(copy.validLines(), src.validLines());
    EXPECT_TRUE(copy.reservationValid());
    EXPECT_EQ(copy.reservationAddr(), src.reservationAddr());
    EXPECT_EQ(copy.reservationTick(), 9u);
    EXPECT_EQ(copy.stats().hits, src.stats().hits);
    // The copy's LRU clock continues from the source's.
    EXPECT_EQ(copy.lookup(7 * BLOCK_BYTES)->lru,
              src.lookup(7 * BLOCK_BYTES)->lru);

    // Changing the copy leaves the source as it was, and back again.
    const std::vector<LineImage> src_now = validImages(src);
    copy.invalidate(0);
    copy.lookup(511 * BLOCK_BYTES)->writeWord(511 * BLOCK_BYTES, 99);
    copy.allocate(100 * BLOCK_BYTES, nullptr)->state = LineState::SHARED;
    EXPECT_EQ(validImages(src), src_now);
    EXPECT_NE(validImages(copy), src_now);
    const std::vector<LineImage> copy_now = validImages(copy);
    src.invalidate(7 * BLOCK_BYTES);
    EXPECT_EQ(validImages(copy), copy_now);

    // Copy assignment replaces every set, built or not.
    Cache other(512, 2);
    other.allocate(200 * BLOCK_BYTES, nullptr)->state = LineState::SHARED;
    other = copy;
    EXPECT_EQ(validImages(other), copy_now);
    EXPECT_EQ(visitedLines(other), visitedLines(copy));
}
