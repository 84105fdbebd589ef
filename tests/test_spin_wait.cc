/**
 * @file
 * The spin-wait fast path (Proc::spinLoad) against its oracle, the
 * plain `while (!until((co_await p.load(a)).value)) {}` loop.
 *
 * Each differential case runs one program twice on fresh Systems, once
 * per loop flavour, and requires byte-identical statsJson, final tick,
 * eventsExecuted() and program results (and TimeSeries JSON when
 * telemetry is on). The library cases pin the statsJson digest of every
 * synchronization object that spins, recorded before the fast path
 * existed, so the library's own call sites are held to the same bar.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "helpers.hh"
#include "sync/central_barrier.hh"
#include "sync/clh_lock.hh"
#include "sync/mcs_lock.hh"
#include "sync/rw_lock.hh"
#include "sync/ticket_lock.hh"
#include "sync/tree_barrier.hh"
#include "sync/tts_lock.hh"

using namespace dsmtest;

namespace {

/** Everything a run exposes that the fast path must leave untouched. */
struct RunPrint
{
    std::string stats;
    Tick end = 0;
    std::uint64_t events = 0;
    std::vector<Word> results;
    std::string timeseries;
    /** SharingTracker write runs and contention (not in statsJson). */
    std::string sharing;

    /** FNV-1a over every field, for pinning a run in one number. */
    std::uint64_t
    digest() const
    {
        std::uint64_t h = 14695981039346656037ull;
        auto mix = [&h](std::string_view s) {
            for (unsigned char c : s) {
                h ^= c;
                h *= 1099511628211ull;
            }
        };
        mix(stats);
        mix(std::to_string(end));
        mix(std::to_string(events));
        for (Word w : results)
            mix("," + std::to_string(w));
        mix(timeseries);
        mix(sharing);
        return h;
    }
};

std::string
histogramText(const Histogram &h)
{
    std::string t = std::to_string(h.samples()) + ":" +
                    std::to_string(h.sum()) + ":";
    for (std::uint64_t b : h.buckets())
        t += std::to_string(b) + ",";
    return t;
}

/** Run @p sys to completion and fingerprint it. */
RunPrint
finish(System &sys)
{
    runAll(sys);
    sys.sharing().finalize();
    RunPrint p;
    p.sharing = histogramText(sys.sharing().writeRuns()) + "|" +
                histogramText(sys.sharing().contention());
    p.stats = sys.statsJson();
    p.end = sys.now();
    p.events = sys.eq().eventsExecuted();
    if (sys.cfg().telemetry.enabled)
        p.timeseries = sys.telemetryJson();
    return p;
}

// ----- library call sites: digests recorded before the fast path -----

constexpr int LIB_PROCS = 8;
constexpr int LIB_SECTIONS = 6;
constexpr int LIB_ROUNDS = 5;

Tick
think(const Proc &p, int i)
{
    return 3 + static_cast<Tick>((7 * p.id() + 5 * i) % 23);
}

template <typename Lock>
Task
lockLoop(Proc &p, Lock &lock, Addr counter)
{
    for (int i = 0; i < LIB_SECTIONS; ++i) {
        co_await lock.acquire(p);
        OpResult c = co_await p.load(counter);
        co_await p.compute(5);
        co_await p.store(counter, c.value + 1);
        co_await lock.release(p);
        co_await p.compute(think(p, i));
    }
}

Task
ticketLoop(Proc &p, TicketLock &lock, Addr counter)
{
    for (int i = 0; i < LIB_SECTIONS; ++i) {
        Word t = co_await lock.acquire(p);
        OpResult c = co_await p.load(counter);
        co_await p.compute(5);
        co_await p.store(counter, c.value + 1);
        co_await lock.release(p, t);
        co_await p.compute(think(p, i));
    }
}

Task
rwLoop(Proc &p, RwLock &lock, Addr counter)
{
    bool writer = p.id() % 3 == 0;
    for (int i = 0; i < LIB_SECTIONS; ++i) {
        if (writer) {
            co_await lock.writerAcquire(p);
            OpResult c = co_await p.load(counter);
            co_await p.compute(9);
            co_await p.store(counter, c.value + 1);
            co_await lock.writerRelease(p);
        } else {
            co_await lock.readerAcquire(p);
            co_await p.load(counter);
            co_await p.compute(12);
            co_await lock.readerRelease(p);
        }
        co_await p.compute(think(p, i));
    }
}

template <typename Barrier>
Task
barrierLoop(Proc &p, Barrier &b, Addr tally)
{
    for (int r = 0; r < LIB_ROUNDS; ++r) {
        co_await p.compute(think(p, r) * 4);
        co_await p.fetchAdd(tally, 1);
        co_await b.arrive(p);
    }
}

/**
 * The library's machine; @p load_exclusive selects the load_exclusive
 * flavour of the CAS simulation of fetch_and_Phi (Section 3).
 */
Config
libConfig(SyncPolicy pol, bool load_exclusive = false)
{
    Config cfg = smallConfig(pol, LIB_PROCS);
    cfg.sync.use_load_exclusive = load_exclusive;
    return cfg;
}

template <typename Lock, typename... Args>
RunPrint
runLock(const Config &cfg, Args... args)
{
    System sys(cfg);
    Lock lock(sys, args...);
    Addr counter = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    for (int i = 0; i < LIB_PROCS; ++i)
        sys.spawn(lockLoop(sys.proc(i), lock, counter));
    RunPrint p = finish(sys);
    p.results.push_back(sys.debugRead(counter));
    return p;
}

RunPrint
runTicket(const Config &cfg, Primitive prim)
{
    System sys(cfg);
    TicketLock lock(sys, prim);
    Addr counter = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    for (int i = 0; i < LIB_PROCS; ++i)
        sys.spawn(ticketLoop(sys.proc(i), lock, counter));
    RunPrint p = finish(sys);
    p.results.push_back(sys.debugRead(counter));
    return p;
}

RunPrint
runRw(const Config &cfg, Primitive prim)
{
    System sys(cfg);
    RwLock lock(sys, prim);
    Addr counter = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    for (int i = 0; i < LIB_PROCS; ++i)
        sys.spawn(rwLoop(sys.proc(i), lock, counter));
    RunPrint p = finish(sys);
    p.results.push_back(sys.debugRead(counter));
    return p;
}

template <typename Barrier, typename... Args>
RunPrint
runBarrier(const Config &cfg, Args... args)
{
    System sys(cfg);
    Barrier b(sys, args...);
    Addr tally = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    for (int i = 0; i < LIB_PROCS; ++i)
        sys.spawn(barrierLoop(sys.proc(i), b, tally));
    RunPrint p = finish(sys);
    p.results.push_back(sys.debugRead(tally));
    return p;
}

TEST(SpinWaitLibrary, TtsLockDigest)
{
    EXPECT_EQ(runLock<TtsLock>(libConfig(SyncPolicy::INV), Primitive::FAP)
                  .digest(),
              0x36bb569fd449188cull);
}

TEST(SpinWaitLibrary, TicketLockDigest)
{
    EXPECT_EQ(runTicket(libConfig(SyncPolicy::INV), Primitive::FAP).digest(),
              0x4ae4879159779835ull);
}

TEST(SpinWaitLibrary, McsLockDigests)
{
    const Config inv = libConfig(SyncPolicy::INV);
    EXPECT_EQ(runLock<McsLock>(inv, Primitive::FAP).digest(),
              0x921c718e1a8d3756ull);
    EXPECT_EQ(runLock<McsLock>(inv, Primitive::CAS).digest(),
              0xdb2f2a05ec2add0eull);
    EXPECT_EQ(runLock<McsLock>(inv, Primitive::LLSC).digest(),
              0x7dada8a4b66b2b78ull);
    EXPECT_EQ(runLock<McsLock>(libConfig(SyncPolicy::UPD), Primitive::LLSC,
                               true)
                  .digest(),
              0x404eb818f4c0f045ull);
}

TEST(SpinWaitLibrary, ClhLockDigest)
{
    EXPECT_EQ(runLock<ClhLock>(libConfig(SyncPolicy::INV), Primitive::FAP)
                  .digest(),
              0x8539bc8be094224bull);
}

TEST(SpinWaitLibrary, RwLockDigest)
{
    EXPECT_EQ(runRw(libConfig(SyncPolicy::INV), Primitive::FAP).digest(),
              0x3ebe7deb8a66d81full);
}

TEST(SpinWaitLibrary, BarrierDigests)
{
    EXPECT_EQ(
        runBarrier<TreeBarrier>(libConfig(SyncPolicy::INV), LIB_PROCS)
            .digest(),
        0x3e2820bc1819ab75ull);
    EXPECT_EQ(runBarrier<CentralBarrier>(libConfig(SyncPolicy::INV),
                                         Primitive::FAP, LIB_PROCS)
                  .digest(),
              0x23656ab803522568ull);
    EXPECT_EQ(runBarrier<CentralBarrier>(libConfig(SyncPolicy::UPD),
                                         Primitive::FAP, LIB_PROCS)
                  .digest(),
              0x39892c491184647eull);
}

// The same objects built on the Section 2.2 simulations instead of a
// native fetch_and_Phi: a load/compare_and_swap loop (plain load, then
// load_exclusive) and a load_linked/store_conditional loop. Recorded
// before the simulations were shared by every object.

TEST(SpinWaitLibrary, TicketLockSimulationDigests)
{
    EXPECT_EQ(runTicket(libConfig(SyncPolicy::INV), Primitive::CAS).digest(),
              0x7b2099ac1ac1178cull);
    EXPECT_EQ(
        runTicket(libConfig(SyncPolicy::INV, true), Primitive::CAS).digest(),
        0xb78fe0597c6f411eull);
    EXPECT_EQ(
        runTicket(libConfig(SyncPolicy::INV), Primitive::LLSC).digest(),
        0x302e333322272739ull);
}

TEST(SpinWaitLibrary, ClhLockSimulationDigests)
{
    EXPECT_EQ(runLock<ClhLock>(libConfig(SyncPolicy::INV), Primitive::CAS)
                  .digest(),
              0x13aeeb0e08fd474bull);
    EXPECT_EQ(
        runLock<ClhLock>(libConfig(SyncPolicy::INV, true), Primitive::CAS)
            .digest(),
        0x1404feec55e56eb8ull);
    EXPECT_EQ(runLock<ClhLock>(libConfig(SyncPolicy::INV), Primitive::LLSC)
                  .digest(),
              0x7627829afea0d2ffull);
}

TEST(SpinWaitLibrary, McsLockLoadExclusiveDigest)
{
    EXPECT_EQ(
        runLock<McsLock>(libConfig(SyncPolicy::INV, true), Primitive::CAS)
            .digest(),
        0xd6fe5dd9bb899d30ull);
}

TEST(SpinWaitLibrary, RwLockSimulationDigests)
{
    // The CAS+load_exclusive and LL/SC lines were re-recorded when the
    // releases moved onto fetchAndPhi: they now issue load_exclusive,
    // and an LL/SC release attempt is two accesses, not three.
    EXPECT_EQ(runRw(libConfig(SyncPolicy::INV), Primitive::CAS).digest(),
              0x2ecbbbdaddd48afeull);
    EXPECT_EQ(runRw(libConfig(SyncPolicy::INV, true), Primitive::CAS).digest(),
              0x36929230b370dec4ull);
    EXPECT_EQ(runRw(libConfig(SyncPolicy::INV), Primitive::LLSC).digest(),
              0x613dce4b3e60abf2ull);
}

TEST(SpinWaitLibrary, CentralBarrierSimulationDigests)
{
    EXPECT_EQ(runBarrier<CentralBarrier>(libConfig(SyncPolicy::INV),
                                         Primitive::CAS, LIB_PROCS)
                  .digest(),
              0xb0e59050e844620eull);
    EXPECT_EQ(runBarrier<CentralBarrier>(libConfig(SyncPolicy::INV, true),
                                         Primitive::CAS, LIB_PROCS)
                  .digest(),
              0xa4e3e6bd36622c2cull);
    EXPECT_EQ(runBarrier<CentralBarrier>(libConfig(SyncPolicy::INV),
                                         Primitive::LLSC, LIB_PROCS)
                  .digest(),
              0x83dc276376e5bfa1ull);
}

// ----- differential cases: spinLoad against the plain loop -----

enum class Loop { PLAIN, FAST };

/** Spin on @p a until @p until holds, in the given loop flavour. */
CoTask<Word>
spinOn(Proc &p, Addr a, SpinUntil until, Loop loop)
{
    if (loop == Loop::FAST)
        co_return (co_await p.spinLoad(a, until)).value;
    OpResult r;
    while (!until((r = co_await p.load(a)).value)) {
    }
    co_return r.value;
}

/** One increment of @p a with the implementation's primitive. */
CoTask<void>
increment(Proc &p, Addr a, Primitive prim)
{
    switch (prim) {
      case Primitive::FAP:
        co_await p.fetchAdd(a, 1);
        co_return;
      case Primitive::CAS:
        for (;;) {
            OpResult r = co_await p.load(a);
            if ((co_await p.cas(a, r.value, r.value + 1)).success)
                co_return;
        }
      case Primitive::LLSC:
        for (;;) {
            OpResult r = co_await p.ll(a);
            if ((co_await p.sc(a, r.value + 1)).success)
                co_return;
        }
    }
}

/** One implementation of the paper's matrix. */
struct Impl
{
    const char *name;
    SyncPolicy policy;
    Primitive prim;
    CasVariant variant;
};

/** The nine application implementations plus INVd and INVs. */
const Impl IMPLS[] = {
    {"INV_FAP", SyncPolicy::INV, Primitive::FAP, CasVariant::PLAIN},
    {"INV_CAS", SyncPolicy::INV, Primitive::CAS, CasVariant::PLAIN},
    {"INV_LLSC", SyncPolicy::INV, Primitive::LLSC, CasVariant::PLAIN},
    {"UPD_FAP", SyncPolicy::UPD, Primitive::FAP, CasVariant::PLAIN},
    {"UPD_CAS", SyncPolicy::UPD, Primitive::CAS, CasVariant::PLAIN},
    {"UPD_LLSC", SyncPolicy::UPD, Primitive::LLSC, CasVariant::PLAIN},
    {"UNC_FAP", SyncPolicy::UNC, Primitive::FAP, CasVariant::PLAIN},
    {"UNC_CAS", SyncPolicy::UNC, Primitive::CAS, CasVariant::PLAIN},
    {"UNC_LLSC", SyncPolicy::UNC, Primitive::LLSC, CasVariant::PLAIN},
    {"INVd_CAS", SyncPolicy::INV, Primitive::CAS, CasVariant::DENY},
    {"INVs_CAS", SyncPolicy::INV, Primitive::CAS, CasVariant::SHARE},
};

constexpr int FLAG_PROCS = 8;

/**
 * Proc 0 moves a flag through 1 and 2 (values the spinners' test
 * rejects) to 3; the others spin for 3, bump a counter with the
 * implementation's primitive, then spin for the release value 4, which
 * proc 0 stores after spinning on the counter (a sync word) until every
 * spinner has bumped it.
 */
Task
flagWriter(Proc &p, Addr flag, Addr counter, Loop loop, Word *out)
{
    co_await p.compute(40);
    co_await p.store(flag, 1);
    co_await p.compute(30);
    co_await p.store(flag, 2);
    co_await p.compute(25);
    co_await p.store(flag, 3);
    *out = co_await spinOn(p, counter, SpinUntil::eq(FLAG_PROCS - 1),
                           loop);
    co_await p.store(flag, 4);
}

Task
flagSpinner(Proc &p, Addr flag, Addr counter, Primitive prim, Loop loop,
            Word *out)
{
    co_await p.compute(3 * static_cast<Tick>(p.id()));
    Word seen = co_await spinOn(p, flag, SpinUntil::eq(3), loop);
    co_await increment(p, counter, prim);
    Word released = co_await spinOn(p, flag, SpinUntil::atLeast(4), loop);
    *out = seen * 10 + released;
}

Config
implConfig(const Impl &impl, int procs)
{
    Config cfg = smallConfig(impl.policy, procs);
    cfg.sync.cas_variant = impl.variant;
    return cfg;
}

RunPrint
runFlag(Config cfg, const Impl &impl, bool sync_flag, Loop loop)
{
    System sys(cfg);
    Addr flag = sync_flag ? sys.allocSync()
                          : sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    Addr counter = sys.allocSync();
    std::vector<Word> out(FLAG_PROCS, 0);
    sys.spawn(flagWriter(sys.proc(0), flag, counter, loop, &out[0]));
    for (int i = 1; i < FLAG_PROCS; ++i)
        sys.spawn(flagSpinner(sys.proc(i), flag, counter, impl.prim, loop,
                              &out[static_cast<std::size_t>(i)]));
    RunPrint p = finish(sys);
    p.results = out;
    return p;
}

void
expectSame(const RunPrint &plain, const RunPrint &fast)
{
    EXPECT_EQ(plain.stats, fast.stats);
    EXPECT_EQ(plain.end, fast.end);
    EXPECT_EQ(plain.events, fast.events);
    EXPECT_EQ(plain.results, fast.results);
    EXPECT_EQ(plain.timeseries, fast.timeseries);
    EXPECT_EQ(plain.sharing, fast.sharing);
}

/** Run the flag program in both flavours and require equal prints. */
void
expectFlagAgrees(const Config &cfg, const Impl &impl, bool sync_flag)
{
    RunPrint plain = runFlag(cfg, impl, sync_flag, Loop::PLAIN);
    RunPrint fast = runFlag(cfg, impl, sync_flag, Loop::FAST);
    expectSame(plain, fast);
    std::vector<Word> want(FLAG_PROCS, 34);
    want[0] = FLAG_PROCS - 1;
    EXPECT_EQ(fast.results, want);
}

struct FlagCase
{
    Impl impl;
    bool sync_flag;
};

/**
 * Without a printer gtest dumps the case's raw bytes, whose `name`
 * pointer moves with ASLR, so the listed (and ctest-discovered) test
 * names would change from one run to the next.
 */
void
PrintTo(const FlagCase &c, std::ostream *os)
{
    *os << c.impl.name << (c.sync_flag ? " sync flag" : " data flag");
}

std::vector<FlagCase>
flagCases()
{
    std::vector<FlagCase> v;
    for (const Impl &impl : IMPLS) {
        v.push_back({impl, false});
        v.push_back({impl, true});
    }
    return v;
}

class SpinWaitFlag : public testing::TestWithParam<FlagCase>
{
};

TEST_P(SpinWaitFlag, FastPathMatchesPlainLoop)
{
    const FlagCase &c = GetParam();
    expectFlagAgrees(implConfig(c.impl, FLAG_PROCS), c.impl, c.sync_flag);
}

INSTANTIATE_TEST_SUITE_P(
    AllImpls, SpinWaitFlag, testing::ValuesIn(flagCases()),
    [](const testing::TestParamInfo<FlagCase> &info) {
        return std::string(info.param.impl.name) +
               (info.param.sync_flag ? "_sync_flag" : "_data_flag");
    });

TEST(SpinWaitDifferential, UpdUpdatesFailingThePredicateKeepSpinning)
{
    // Under UPD the writer's stores of 1 and 2 update the spinners'
    // cached copies in place, so their spins keep hitting across the
    // rejected values until 3 arrives; with a slow hit the window
    // between an update and the next read is wide.
    const Impl &upd = IMPLS[3];
    Config cfg = implConfig(upd, FLAG_PROCS);
    expectFlagAgrees(cfg, upd, true);
    cfg.machine.cache_hit_latency = 7;
    expectFlagAgrees(cfg, upd, true);
}

TEST(SpinWaitDifferential, SpuriousReservationClears)
{
    for (const Impl &impl : IMPLS) {
        SCOPED_TRACE(impl.name);
        Config cfg = implConfig(impl, FLAG_PROCS);
        cfg.machine.spurious_resv_period = 37;
        expectFlagAgrees(cfg, impl, true);
    }
}

TEST(SpinWaitDifferential, TelemetryAndWatchdogOn)
{
    // Both do nothing per hit, so the fast path stays engaged; the
    // TimeSeries JSON must match as well.
    for (const Impl &impl : IMPLS) {
        SCOPED_TRACE(impl.name);
        Config cfg = implConfig(impl, FLAG_PROCS);
        cfg.telemetry.enabled = true;
        cfg.telemetry.window = 64;
        cfg.watchdog.enabled = true;
        cfg.watchdog.max_retries = 1000;
        cfg.watchdog.max_txn_age = 100000;
        cfg.watchdog.scan_period = 97;
        RunPrint plain = runFlag(cfg, impl, true, Loop::PLAIN);
        RunPrint fast = runFlag(cfg, impl, true, Loop::FAST);
        EXPECT_FALSE(fast.timeseries.empty());
        expectSame(plain, fast);
    }
}

TEST(SpinWaitDifferential, PerOpObserversTakeTheOrdinaryPath)
{
    // Faults, transaction tracing and the tracer each see every
    // operation, so the gate is off and spinLoad runs the ordinary path.
    for (const Impl &impl : IMPLS) {
        SCOPED_TRACE(impl.name);
        Config faults = implConfig(impl, FLAG_PROCS);
        faults.faults.enabled = true;
        faults.faults.seed = 11;
        faults.faults.evict_prob = 0.05;
        faults.faults.resv_drop_prob = 0.05;
        faults.faults.nack_prob = 0.05;
        expectFlagAgrees(faults, impl, true);
        expectFlagAgrees(faults, impl, false);

        Config txn = implConfig(impl, FLAG_PROCS);
        txn.txn_trace.enabled = true;
        expectFlagAgrees(txn, impl, true);

        Config trace = implConfig(impl, FLAG_PROCS);
        trace.trace.enabled = true;
        trace.trace.capacity = 1u << 12;
        expectFlagAgrees(trace, impl, false);
    }
}

/**
 * The LRU case. One 2-way set holds every line, so the spinner's flag
 * F, a line A it owns dirty, and a line B it loads afterwards compete
 * for two ways. First an immediately satisfied spin on F must move F's
 * stamp past A's. Then, while proc 0 spins on F, proc 1 reads A
 * (forwarded to proc 0, touching A's stamp) and proc 2 updates F (UPD
 * sync word, with a slow hit so the reads straddle the forward). The
 * victim of the spinner's miss on B depends on those stamps, and the
 * reloads of F and A show which line it was.
 */
Task
lruSpinner(Proc &p, Addr f, Addr a, Addr b, Loop loop, Word *out)
{
    co_await p.load(f);
    co_await p.store(a, 5);
    co_await spinOn(p, f, SpinUntil::eq(0), loop);
    co_await p.load(b);
    co_await p.store(a, 6);
    Word v = co_await spinOn(p, f, SpinUntil::eq(1), loop);
    co_await p.load(b);
    co_await p.load(f);
    co_await p.load(a);
    *out = v;
}

Task
lruReader(Proc &p, Addr a, Tick delay)
{
    co_await p.compute(delay);
    co_await p.load(a);
}

Task
lruWriter(Proc &p, Addr f, Tick delay)
{
    co_await p.compute(delay);
    co_await p.store(f, 1);
}

RunPrint
runLru(Tick reader_delay, Loop loop)
{
    Config cfg = smallConfig(SyncPolicy::UPD, 4);
    cfg.machine.cache_sets = 1;
    cfg.machine.cache_ways = 2;
    cfg.machine.cache_hit_latency = 9;
    System sys(cfg);
    Addr f = sys.allocSync();
    Addr a = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    Addr b = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    Word v = 0;
    sys.spawn(lruSpinner(sys.proc(0), f, a, b, loop, &v));
    sys.spawn(lruReader(sys.proc(1), a, reader_delay));
    sys.spawn(lruWriter(sys.proc(2), f, 300));
    RunPrint p = finish(sys);
    p.results.push_back(v);
    return p;
}

TEST(SpinWaitDifferential, LruStampsMatchAcrossAForwardMidSpin)
{
    for (Tick d = 200; d < 420; d += 3) {
        SCOPED_TRACE(d);
        expectSame(runLru(d, Loop::PLAIN), runLru(d, Loop::FAST));
    }
}

// ----- seeded random flag programs -----

constexpr int RAND_PROCS = 8;
constexpr int RAND_FLAGS = 4;
constexpr Word RAND_TOP = 4;
constexpr std::uint64_t RAND_SEEDS = 40;

/**
 * The flags of a random program: two sync flags, each in its own block,
 * and two data flags sharing one block, so a store to either data flag
 * changes the line the other flag's spinners hold.
 */
struct RandFlags
{
    Addr addr[RAND_FLAGS];
    bool sync[RAND_FLAGS];
};

/**
 * Raise flags @p first and @p first + 2 from 0 to RAND_TOP in a random
 * interleaving, with a random compute delay before each access. A
 * quarter of the accesses store the flag's current value again (under
 * UPD such a store sends no update); a sync flag is raised half the
 * time with the implementation's own increment.
 */
Task
randWriter(Proc &p, const RandFlags &f, int first, Primitive prim,
           std::uint64_t seed, Word *out)
{
    Rng rng(seed);
    Word val[2] = {0, 0};
    Word stores = 0;
    while (val[0] < RAND_TOP || val[1] < RAND_TOP) {
        int k = rng.chance(1, 2) ? 0 : 1;
        if (val[k] == RAND_TOP)
            k = 1 - k;
        int flag = first + 2 * k;
        co_await p.compute(rng.range(1, 40));
        ++stores;
        if (rng.chance(1, 4)) {
            co_await p.store(f.addr[flag], val[k]);
            continue;
        }
        ++val[k];
        if (f.sync[flag] && rng.chance(1, 2))
            co_await increment(p, f.addr[flag], prim);
        else
            co_await p.store(f.addr[flag], val[k]);
    }
    *out = stores;
}

/**
 * Wait on random flags for random targets (at least a drawn value, or
 * the final value), with compute, a plain flag read or a store to a
 * private word between waits.
 */
Task
randSpinner(Proc &p, const RandFlags &f, Addr own, std::uint64_t seed,
            Loop loop, Word *out)
{
    Rng rng(seed);
    Word acc = 0;
    int waits = static_cast<int>(rng.range(2, 5));
    co_await p.compute(rng.range(0, 30));
    for (int w = 0; w < waits; ++w) {
        Addr flag = f.addr[rng.below(RAND_FLAGS)];
        SpinUntil until = rng.chance(1, 3)
                              ? SpinUntil::eq(RAND_TOP)
                              : SpinUntil::atLeast(rng.range(1, RAND_TOP));
        Word v = co_await spinOn(p, flag, until, loop);
        acc = acc * 7 + v;
        switch (rng.below(3)) {
          case 0:
            co_await p.compute(rng.range(1, 20));
            break;
          case 1:
            co_await p.load(f.addr[rng.below(RAND_FLAGS)]);
            break;
          default:
            co_await p.store(own, acc);
            break;
        }
    }
    *out = acc;
}

/**
 * A chain of ordinary loads, mostly of a private line that stays
 * cached, so their completions, cache_hit_latency cycles after issue,
 * sort among the spinners' completions; now and then a flag read or a
 * one-cycle compute.
 */
Task
randLoader(Proc &p, const RandFlags &f, Addr own, std::uint64_t seed,
           Word *out)
{
    Rng rng(seed);
    int n = static_cast<int>(rng.range(20, 80));
    Word acc = 0;
    for (int i = 0; i < n; ++i) {
        Addr a = rng.chance(1, 6) ? f.addr[rng.below(RAND_FLAGS)] : own;
        OpResult r = co_await p.load(a);
        acc += r.value + 1;
        if (rng.chance(1, 8))
            co_await p.compute(1);
    }
    *out = acc;
}

RunPrint
runRandom(const Config &cfg, Primitive prim, std::uint64_t seed, Loop loop)
{
    System sys(cfg);
    RandFlags f{};
    f.addr[0] = sys.allocSync();
    f.addr[1] = sys.allocSync();
    f.sync[0] = f.sync[1] = true;
    f.addr[2] = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    f.addr[3] = f.addr[2] + WORD_BYTES;
    std::vector<Word> out(RAND_PROCS, 0);
    Rng roles(seed);
    for (int i = 0; i < RAND_PROCS; ++i) {
        Proc &p = sys.proc(i);
        Addr own = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
        std::uint64_t s = seed * RAND_PROCS + static_cast<std::uint64_t>(i);
        Word *o = &out[static_cast<std::size_t>(i)];
        if (i < 2)
            sys.spawn(randWriter(p, f, i, prim, s, o));
        else if (i < 4 || roles.chance(2, 3))
            sys.spawn(randSpinner(p, f, own, s, loop, o));
        else
            sys.spawn(randLoader(p, f, own, s, o));
    }
    RunPrint p = finish(sys);
    p.results = out;
    return p;
}

/** INV, UPD and the INVd/INVs compare_and_swap variants. */
const Impl RANDOM_IMPLS[] = {IMPLS[0], IMPLS[3], IMPLS[9], IMPLS[10]};

TEST(SpinWaitDifferential, RandomFlagProgramsMatchPlainLoop)
{
    for (const Impl &impl : RANDOM_IMPLS) {
        for (Tick hit : {Tick{1}, Tick{3}}) {
            Config cfg = implConfig(impl, RAND_PROCS);
            cfg.machine.cache_hit_latency = hit;
            for (std::uint64_t seed = 1; seed <= RAND_SEEDS; ++seed) {
                SCOPED_TRACE(testing::Message()
                             << impl.name << " hit=" << hit
                             << " seed=" << seed);
                expectSame(runRandom(cfg, impl.prim, seed, Loop::PLAIN),
                           runRandom(cfg, impl.prim, seed, Loop::FAST));
            }
        }
    }
}

// ----- runs stopped early while processors spin -----

/** What a run that stops early leaves behind. */
struct StopPrint
{
    RunResult run;
    std::string stats;
};

void
expectSameStop(const StopPrint &plain, const StopPrint &fast)
{
    EXPECT_EQ(plain.run.completed, fast.run.completed);
    EXPECT_EQ(plain.run.livelocked, fast.run.livelocked);
    EXPECT_EQ(plain.run.end_tick, fast.run.end_tick);
    EXPECT_EQ(plain.run.events, fast.run.events);
    EXPECT_EQ(plain.run.diagnosis, fast.run.diagnosis);
    EXPECT_EQ(plain.stats, fast.stats);
}

/**
 * Test-and-test-and-set lock rounds with a plain or spin-wait test; the
 * last round of proc 0 raises @p done.
 */
Task
ttsRounds(Proc &p, Addr lock, Addr counter, Addr done, Loop loop)
{
    for (int i = 0; i < LIB_SECTIONS; ++i) {
        for (;;) {
            co_await spinOn(p, lock, SpinUntil::eq(0), loop);
            OpResult r = co_await p.testAndSet(lock);
            if (r.value == 0)
                break;
        }
        OpResult c = co_await p.load(counter);
        co_await p.compute(20);
        co_await p.store(counter, c.value + 1);
        co_await p.store(lock, 0);
        co_await p.compute(think(p, i));
    }
    if (p.id() == 0)
        co_await p.store(done, 1);
}

/** Spin on @p done, a data flag, until it is raised. */
Task
bystander(Proc &p, Addr done, Loop loop)
{
    co_await p.compute(static_cast<Tick>(p.id()));
    co_await spinOn(p, done, SpinUntil::ne(0), loop);
}

/**
 * Eight processors take a TTS lock while eight bystanders spin on a
 * flag that is raised only after the lock rounds; the tick bound stops
 * a run whose watchdog never trips.
 */
StopPrint
runTtsTrip(int max_retries, Loop loop)
{
    Config cfg = smallConfig(SyncPolicy::INV, 16);
    cfg.watchdog.enabled = true;
    cfg.watchdog.max_retries = max_retries;
    System sys(cfg);
    Addr lock = sys.allocSync();
    Addr counter = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    Addr done = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    for (int i = 0; i < 8; ++i)
        sys.spawn(ttsRounds(sys.proc(i), lock, counter, done, loop));
    for (int i = 8; i < 16; ++i)
        sys.spawn(bystander(sys.proc(i), done, loop));
    StopPrint s;
    s.run = sys.run(1'000'000);
    s.stats = sys.statsJson();
    return s;
}

TEST(SpinWaitDifferential, WatchdogTripMidSpinMatchesPlainLoop)
{
    // No faults: the NACKs come from requests that reach the lock's
    // directory entry while it is busy, and the bound trips while the
    // bystanders, and the lock's losers, spin on cached copies.
    for (int bound = 1; bound <= 7; ++bound) {
        SCOPED_TRACE(bound);
        StopPrint plain = runTtsTrip(bound, Loop::PLAIN);
        StopPrint fast = runTtsTrip(bound, Loop::FAST);
        EXPECT_TRUE(fast.run.livelocked);
        expectSameStop(plain, fast);
    }
}

/**
 * The flag program stopped by System::run's tick deadline, then run on
 * to completion: both stops must match the plain loop's.
 */
void
expectDeadlineAgrees(const Config &cfg, const Impl &impl, Tick deadline)
{
    StopPrint stop[2];
    RunPrint done[2];
    for (Loop loop : {Loop::PLAIN, Loop::FAST}) {
        int k = loop == Loop::PLAIN ? 0 : 1;
        System sys(cfg);
        Addr flag = sys.allocSync();
        Addr counter = sys.allocSync();
        std::vector<Word> out(FLAG_PROCS, 0);
        sys.spawn(flagWriter(sys.proc(0), flag, counter, loop, &out[0]));
        for (int i = 1; i < FLAG_PROCS; ++i)
            sys.spawn(flagSpinner(sys.proc(i), flag, counter, impl.prim,
                                  loop, &out[static_cast<std::size_t>(i)]));
        stop[k].run = sys.run(deadline);
        stop[k].stats = sys.statsJson();
        done[k] = finish(sys);
        done[k].results = out;
    }
    EXPECT_FALSE(stop[1].run.completed);
    expectSameStop(stop[0], stop[1]);
    expectSame(done[0], done[1]);
}

TEST(SpinWaitDifferential, TickDeadlineMidSpinMatchesPlainLoop)
{
    for (const Impl &impl : RANDOM_IMPLS) {
        for (Tick hit : {Tick{1}, Tick{3}}) {
            Config cfg = implConfig(impl, FLAG_PROCS);
            cfg.machine.cache_hit_latency = hit;
            for (Tick deadline : {Tick{45}, Tick{61}, Tick{88}, Tick{97},
                                  Tick{120}, Tick{203}}) {
                SCOPED_TRACE(testing::Message() << impl.name << " hit="
                                                << hit << " deadline="
                                                << deadline);
                expectDeadlineAgrees(cfg, impl, deadline);
            }
        }
    }
}

// ----- parking engages -----

/** Barrier rounds in which processor 0 computes far longer than the
 *  rest. */
Task
lateArrivals(Proc &p, TreeBarrier &b)
{
    for (int r = 0; r < LIB_ROUNDS; ++r) {
        co_await p.compute(p.id() == 0 ? 3000 : think(p, r));
        co_await b.arrive(p);
    }
}

/** eventsDispatched() and eventsExecuted() of lateArrivals on 16 procs. */
std::pair<std::uint64_t, std::uint64_t>
barrierEventCounts(bool trace)
{
    Config cfg = smallConfig(SyncPolicy::INV, 16);
    if (trace) {
        cfg.trace.enabled = true;
        cfg.trace.capacity = 1u << 10;
    }
    System sys(cfg);
    TreeBarrier b(sys, 16);
    for (int i = 0; i < 16; ++i)
        sys.spawn(lateArrivals(sys.proc(i), b));
    runAll(sys);
    return {sys.eq().eventsDispatched(), sys.eq().eventsExecuted()};
}

TEST(SpinWaitParking, GroupsDispatchUnderATenthOfTheEvents)
{
    // Fifteen processors wait in the tree barrier while processor 0
    // computes; each tick's run of cached spin iterations is one
    // dispatched spin group.
    auto [dispatched, executed] = barrierEventCounts(false);
    EXPECT_LT(dispatched * 10, executed);
}

TEST(SpinWaitParking, TracerDispatchesEveryEvent)
{
    // The tracer sees every operation, which keeps the hit path off:
    // nothing parks, and the logical count is the parked run's.
    auto [dispatched, executed] = barrierEventCounts(true);
    EXPECT_EQ(dispatched, executed);
    EXPECT_EQ(executed, barrierEventCounts(false).second);
}

} // anonymous namespace
