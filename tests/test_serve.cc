/**
 * @file
 * Tests for the overload-protection serving layer (ServeConfig):
 * config parsing/validation/env plumbing, the two-level HomeQueue unit
 * behavior (priority, aging, combinable extraction), end-to-end
 * home-node fetch&add combining correctness across all three
 * placement policies (k combined FAPs return k distinct consecutive
 * values, coherence checker clean), exact counter reconciliation
 * (served == slots + coalesced, anti-vacuously with coalesced > 0
 * under contention), credit backpressure shedding at the admission
 * edge, the watchdog's throttled-transaction classification, and the
 * zero-cost-when-off contract.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include "helpers.hh"
#include "mem/home_queue.hh"
#include "sync/lockfree_counter.hh"
#include "workloads/openloop.hh"

namespace {

using namespace dsmtest;

// ----- ServeConfig parsing and validation -----

TEST(ServeConfig, ParseDefaultsAndSpecs)
{
    ServeConfig c;
    EXPECT_TRUE(c.parse("1").empty());
    EXPECT_TRUE(c.enabled);
    EXPECT_TRUE(c.combining);
    EXPECT_TRUE(c.backpressure);
    EXPECT_TRUE(c.priority);
    EXPECT_TRUE(c.nack_backoff);

    ServeConfig s;
    EXPECT_TRUE(s.parse("combining=0,backpressure=1,credit_threshold=3,"
                        "priority=0,age_limit=500,nack_backoff=1,"
                        "backoff_cap=8,combine_limit=4")
                    .empty());
    EXPECT_TRUE(s.enabled);
    EXPECT_FALSE(s.combining);
    EXPECT_EQ(s.combine_limit, 4);
    EXPECT_TRUE(s.backpressure);
    EXPECT_EQ(s.credit_threshold, 3);
    EXPECT_FALSE(s.priority);
    EXPECT_EQ(s.age_limit, 500u);
    EXPECT_EQ(s.backoff_cap, 8);

    // summary() round-trips through parse().
    ServeConfig r;
    EXPECT_TRUE(r.parse(s.summary()).empty());
    EXPECT_EQ(r.combining, s.combining);
    EXPECT_EQ(r.combine_limit, s.combine_limit);
    EXPECT_EQ(r.credit_threshold, s.credit_threshold);
    EXPECT_EQ(r.priority, s.priority);
    EXPECT_EQ(r.age_limit, s.age_limit);
    EXPECT_EQ(r.backoff_cap, s.backoff_cap);

    ServeConfig bad;
    EXPECT_NE(bad.parse("bogus=1").find("unknown serve spec key"),
              std::string::npos);
}

TEST(ServeConfig, ValidateRejectsBadKnobs)
{
    auto expectInvalid = [](void (*tweak)(Config &),
                            const char *needle) {
        Config cfg = smallConfig();
        cfg.serve.enabled = true;
        tweak(cfg);
        std::string err = cfg.validate();
        EXPECT_NE(err.find(needle), std::string::npos)
            << "validate() said: " << err;
    };
    expectInvalid([](Config &c) { c.serve.combine_limit = 1; },
                  "combine_limit");
    expectInvalid([](Config &c) { c.serve.credit_threshold = 0; },
                  "credit_threshold");
    expectInvalid([](Config &c) { c.serve.age_limit = 0; },
                  "age_limit");
    expectInvalid([](Config &c) { c.serve.backoff_cap = 2; },
                  "backoff_cap");
    expectInvalid([](Config &c) { c.serve.backoff_cap = 30; },
                  "backoff_cap");

    // A disabled config never validates its knobs.
    Config off = smallConfig();
    off.serve.combine_limit = 0;
    EXPECT_TRUE(off.validate().empty());
}

TEST(ServeConfig, EnvOverride)
{
    // DSM_SERVE reaches campaigns through their axis; the one spec the
    // library reads from the environment itself is DSM_FAULTS.
    ::setenv("DSM_FAULTS", "nack_prob=0.5,max_extra_nacks=2", 1);
    FaultConfig c = faultConfigFromEnv();
    EXPECT_TRUE(c.enabled);
    EXPECT_DOUBLE_EQ(c.nack_prob, 0.5);
    EXPECT_EQ(c.max_extra_nacks, 2);
    ::setenv("DSM_FAULTS", "0", 1);
    EXPECT_FALSE(faultConfigFromEnv().enabled);
    ::unsetenv("DSM_FAULTS");
    EXPECT_FALSE(faultConfigFromEnv().enabled);
}

// ----- HomeQueue unit behavior -----

Msg
fapReq(NodeId src, Addr word, MsgType t = MsgType::UNC_REQ)
{
    Msg m;
    m.type = t;
    m.src = src;
    m.op = AtomicOp::FAA;
    m.addr = blockBase(word);
    m.word_addr = word;
    m.value = 1;
    return m;
}

TEST(HomeQueue, PriorityAndAging)
{
    ServeStats st;
    HomeQueue q(/*age_limit=*/100);
    Msg lo = fapReq(1, BLOCK_BYTES);
    Msg hi = fapReq(2, BLOCK_BYTES);
    q.push(lo, /*now=*/0, /*low=*/true);
    q.push(hi, /*now=*/50, /*low=*/false);

    // Below the age limit the foreground head wins.
    HomeQueue::Entry e = q.pop(/*now=*/60, st);
    EXPECT_EQ(e.msg.src, 2);
    EXPECT_EQ(st.hi_served, 1u);

    // Push fresh foreground traffic; once the low head has waited
    // age_limit cycles it is served next despite the foreground queue.
    q.push(fapReq(3, BLOCK_BYTES), 70, false);
    e = q.pop(/*now=*/150, st);
    EXPECT_EQ(e.msg.src, 1);
    EXPECT_EQ(st.lo_served, 1u);
    EXPECT_EQ(st.aged, 1u);

    e = q.pop(/*now=*/150, st);
    EXPECT_EQ(e.msg.src, 3);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(st.served, 3u);
}

TEST(HomeQueue, ExtractCombinableRespectsTypeWordAndLimit)
{
    ServeStats st;
    HomeQueue q(1000);
    Msg lead = fapReq(0, BLOCK_BYTES);
    q.push(fapReq(1, BLOCK_BYTES), 0, false);          // combines
    q.push(fapReq(2, BLOCK_BYTES + WORD_BYTES), 0, false); // other word
    q.push(fapReq(3, BLOCK_BYTES, MsgType::UPD_REQ), 0, false); // type
    q.push(fapReq(4, BLOCK_BYTES), 0, true);           // combines (low)
    q.push(fapReq(5, BLOCK_BYTES), 0, false);          // combines

    std::vector<HomeQueue::Entry> got = q.extractCombinable(lead, 2);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].msg.src, 1);
    EXPECT_EQ(got[1].msg.src, 5);
    EXPECT_EQ(q.depth(), 3u); // non-matching + over-limit stay queued

    // Same-src duplicates (retransmissions) never combine; dedup at
    // service time handles them instead.
    EXPECT_FALSE(HomeQueue::combinesWith(lead, fapReq(0, BLOCK_BYTES)));
    // GET_S combines on the block address.
    Msg gs_lead = fapReq(0, BLOCK_BYTES, MsgType::GET_S);
    Msg gs_follow = fapReq(1, BLOCK_BYTES, MsgType::GET_S);
    EXPECT_TRUE(HomeQueue::combinesWith(gs_lead, gs_follow));
}

TEST(HomeQueue, LeadsOnlyWhereTheHomeAnswersFromMemory)
{
    // The leader rule the controller and the model checker share: an
    // idle entry, and a request the home answers from memory alone.
    DirEntry uncached;
    DirEntry shared;
    shared.state = DirState::SHARED;
    shared.addSharer(1);
    DirEntry exclusive;
    exclusive.state = DirState::EXCLUSIVE;
    exclusive.owner = 1;
    DirEntry busy; // an idle uncached entry but for the busy bit
    busy.busy = true;

    Msg getS = fapReq(0, BLOCK_BYTES, MsgType::GET_S);
    getS.op = AtomicOp::LOAD;
    Msg uncFaa = fapReq(0, BLOCK_BYTES, MsgType::UNC_REQ);
    Msg updFaa = fapReq(0, BLOCK_BYTES, MsgType::UPD_REQ);
    Msg uncCas = fapReq(0, BLOCK_BYTES, MsgType::UNC_REQ);
    uncCas.op = AtomicOp::CAS;

    struct Case
    {
        const char *what;
        const Msg &m;
        bool uncached, shared, exclusive, busy;
    };
    const Case cases[] = {
        {"GET_S", getS, true, true, false, false},
        {"UNC_REQ FAA", uncFaa, true, false, false, false},
        {"UPD_REQ FAA", updFaa, true, true, false, false},
        {"UNC_REQ CAS", uncCas, false, false, false, false},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        EXPECT_EQ(HomeQueue::leads(c.m, uncached), c.uncached);
        EXPECT_EQ(HomeQueue::leads(c.m, shared), c.shared);
        EXPECT_EQ(HomeQueue::leads(c.m, exclusive), c.exclusive);
        EXPECT_EQ(HomeQueue::leads(c.m, busy), c.busy);
    }
}

// ----- End-to-end combining correctness -----

Task
incCollect(Proc &p, LockFreeCounter &c, int n, std::vector<Word> *out)
{
    for (int i = 0; i < n; ++i)
        out->push_back(co_await c.fetchInc(p));
}

Config
serveConfig(SyncPolicy pol, int procs = 8)
{
    Config cfg = smallConfig(pol, procs);
    cfg.serve.enabled = true;
    return cfg;
}

class CombiningMatrix : public testing::TestWithParam<SyncPolicy>
{
};

TEST_P(CombiningMatrix, CombinedFapsReturnDistinctConsecutiveValues)
{
    // Eight processors hammer one counter through its home node. With
    // combining on, queued fetch&adds to the word are folded into one
    // memory service slot — and every requester must still observe a
    // distinct value, together forming the serial history 0..N-1.
    Config cfg = serveConfig(GetParam());
    System sys(cfg);
    LockFreeCounter counter(sys, Primitive::FAP);
    const int per_proc = 30;
    std::vector<Word> seen;
    for (NodeId n = 0; n < 8; ++n)
        sys.spawn(incCollect(sys.proc(n), counter, per_proc, &seen));
    runAll(sys);

    ASSERT_EQ(seen.size(), 8u * per_proc);
    std::sort(seen.begin(), seen.end());
    for (Word i = 0; i < 8 * per_proc; ++i)
        EXPECT_EQ(seen[static_cast<size_t>(i)], i);
    EXPECT_EQ(sys.debugRead(counter.addr()), 8u * per_proc);

    // Exact counter reconciliation: every serve slot pops one leader,
    // so requests served decompose exactly into slots plus coalesced
    // followers, and the two service classes partition the total.
    const ServeStats &st = sys.serveStats();
    EXPECT_EQ(st.served, st.slots + st.coalesced);
    EXPECT_EQ(st.served, st.hi_served + st.lo_served);
    // Anti-vacuous under memory-executed policies: contention on one
    // word must actually coalesce. (Under INV the FAPs execute in the
    // requester's cache via GET_X, which never combines.)
    if (GetParam() != SyncPolicy::INV) {
        EXPECT_GT(st.coalesced, 0u) << "combining never fired";
        EXPECT_GT(st.batches, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, CombiningMatrix,
                         testing::Values(SyncPolicy::INV, SyncPolicy::UPD,
                                         SyncPolicy::UNC),
                         [](const testing::TestParamInfo<SyncPolicy> &i) {
                             return std::string(toString(i.param));
                         });

TEST(Combining, DisabledServesOnePerSlot)
{
    Config cfg = serveConfig(SyncPolicy::UNC);
    cfg.serve.combining = false;
    System sys(cfg);
    LockFreeCounter counter(sys, Primitive::FAP);
    std::vector<Word> seen;
    for (NodeId n = 0; n < 8; ++n)
        sys.spawn(incCollect(sys.proc(n), counter, 10, &seen));
    runAll(sys);
    EXPECT_EQ(sys.debugRead(counter.addr()), 80u);
    const ServeStats &st = sys.serveStats();
    EXPECT_EQ(st.coalesced, 0u);
    EXPECT_EQ(st.served, st.slots);
}

TEST(Combining, CombineLimitBoundsBatchSize)
{
    Config cfg = serveConfig(SyncPolicy::UNC, 16);
    cfg.serve.combine_limit = 2;
    System sys(cfg);
    LockFreeCounter counter(sys, Primitive::FAP);
    std::vector<Word> seen;
    for (NodeId n = 0; n < 16; ++n)
        sys.spawn(incCollect(sys.proc(n), counter, 10, &seen));
    runAll(sys);
    EXPECT_EQ(sys.debugRead(counter.addr()), 160u);
    const ServeStats &st = sys.serveStats();
    EXPECT_EQ(st.served, st.slots + st.coalesced);
    // With limit 2 each batch holds one leader and one follower.
    EXPECT_EQ(st.coalesced, st.batches);
}

Task
incThinking(Proc &p, LockFreeCounter &c, int n)
{
    for (int i = 0; i < n; ++i) {
        co_await c.fetchInc(p);
        co_await p.compute(30 * static_cast<Tick>(1 + i % 4));
    }
}

TEST(Combining, EveryQueuedRequestIsProfiledOnce)
{
    // Duplicated requests under recovery meet combining. A follower
    // that the per-member dedup consumes was still served by its slot,
    // so its home service is noted even when no batch of two remains:
    // the line profiler counts each request that entered a home queue
    // exactly once.
    Config cfg = serveConfig(SyncPolicy::UNC);
    cfg.telemetry.enabled = true;
    ASSERT_EQ(cfg.faults.parse("req_timeout=4000,dup_prob=0.3,"
                               "dup_delay=64"),
              "");
    System sys(cfg);
    std::uint64_t queued = 0;
    for (NodeId n = 0; n < 8; ++n)
        sys.mesh().setHandler(n, [&sys, &queued, n](const Msg &m) {
            if (homeTargeted(m.type))
                ++queued;
            sys.ctrl(n).handleMsg(m);
        });
    LockFreeCounter counter(sys, Primitive::FAP);
    for (NodeId n = 0; n < 8; ++n)
        sys.spawn(incThinking(sys.proc(n), counter, 30));
    runAll(sys);
    EXPECT_EQ(sys.debugRead(counter.addr()), 240u);

    std::uint64_t profiled = 0;
    for (const LineProfiler::Ranked &r : sys.lineProfiler().ranked(64))
        profiled += r.prof.requests;
    EXPECT_EQ(profiled, queued);
    // Anti-vacuous: duplicates reached the home queues and combined.
    EXPECT_GT(queued, 240u);
    EXPECT_GT(sys.serveStats().coalesced, 0u);
}

TEST(Serve, DeterministicStatsAcrossRuns)
{
    auto once = [] {
        Config cfg = serveConfig(SyncPolicy::UNC);
        System sys(cfg);
        LockFreeCounter counter(sys, Primitive::FAP);
        std::vector<Word> seen;
        for (NodeId n = 0; n < 8; ++n)
            sys.spawn(incCollect(sys.proc(n), counter, 20, &seen));
        runAll(sys);
        return sys.statsJson();
    };
    EXPECT_EQ(once(), once());
}

// ----- Credit backpressure -----

TEST(Backpressure, ShedsAtTheAdmissionEdgeUnderOverload)
{
    // Saturating open-loop arrivals against one hot counter: the home
    // queue backs up past the credit threshold, replies advertise the
    // depth, requesters throttle, and the admission edge sheds.
    Config cfg = smallConfig(SyncPolicy::UNC, 4);
    cfg.openloop.enabled = true;
    cfg.openloop.rate_ppc = 0.05;
    cfg.openloop.burst = 4;
    cfg.openloop.ops_per_proc = 64;
    cfg.openloop.queue_cap = 64;
    cfg.openloop.slo_cycles = 400;
    cfg.serve.enabled = true;
    cfg.serve.combining = false; // keep the queue deep
    cfg.serve.credit_threshold = 2;
    System sys(cfg);
    OpenLoopResult r = runOpenLoop(sys, Primitive::FAP);

    EXPECT_TRUE(r.completed_run);
    EXPECT_TRUE(r.correct);
    const ServeStats &st = sys.serveStats();
    EXPECT_GT(st.throttle_events, 0u) << "no requester ever throttled";
    EXPECT_GT(st.throttle_cycles, 0u);
    const OpenLoopStats &os = sys.admissionState().stats();
    EXPECT_GT(os.rejected_throttled, 0u) << "throttle never reached "
                                            "the admission edge";
    EXPECT_LE(os.rejected_throttled, os.rejected);
}

// ----- Watchdog classification -----

TEST(WatchdogServe, BackoffParkIsNotLivelock)
{
    // Injected NACK storms force deep retry chains, so a transaction
    // spends most of its life waiting out exponential backoff. An
    // aggressive age bound that trips the watchdog without the serving
    // layer must complete with it on: parked cycles are deliberate
    // waiting and do not count toward livelock age.
    auto build = [](bool serve_on) {
        Config cfg = smallConfig(SyncPolicy::INV, 8);
        cfg.machine.retry_delay = 150;
        cfg.faults.enabled = true;
        cfg.faults.nack_prob = 0.9;
        cfg.faults.max_extra_nacks = 12;
        cfg.watchdog.enabled = true;
        cfg.watchdog.max_txn_age = 2500;
        cfg.watchdog.scan_period = 250;
        cfg.serve.enabled = serve_on;
        cfg.serve.backoff_cap = 6;
        return cfg;
    };

    Config off = build(false);
    System sys_off(off);
    LockFreeCounter c_off(sys_off, Primitive::FAP);
    std::vector<Word> sink;
    for (NodeId n = 0; n < 8; ++n)
        sys_off.spawn(incCollect(sys_off.proc(n), c_off, 30, &sink));
    RunResult r_off = sys_off.run();
    ASSERT_TRUE(r_off.livelocked)
        << "baseline config no longer trips; tighten max_txn_age";
    EXPECT_NE(r_off.diagnosis.find("exceeded the age bound"),
              std::string::npos);

    Config on = build(true);
    System sys_on(on);
    LockFreeCounter c_on(sys_on, Primitive::FAP);
    std::vector<Word> seen;
    for (NodeId n = 0; n < 8; ++n)
        sys_on.spawn(incCollect(sys_on.proc(n), c_on, 30, &seen));
    // Sample blocked-transaction dumps mid-run: parked transactions
    // must be classified as throttled, not stuck.
    std::string dumps;
    std::function<void()> sample = [&] {
        bool parked = false;
        for (NodeId n = 0; n < 8; ++n)
            if (sys_on.now() < sys_on.ctrl(n).cpuParkedUntil())
                parked = true;
        if (parked && dumps.empty())
            dumps = Watchdog::blockedTxnDump(sys_on);
        if (dumps.empty() && sys_on.tasksPending() > 0)
            sys_on.eq().scheduleIn(200, sample);
    };
    sys_on.eq().scheduleIn(200, sample);
    RunResult r_on = sys_on.run();
    EXPECT_TRUE(r_on.completed)
        << "serve-on run did not complete: " << r_on.diagnosis;
    EXPECT_FALSE(r_on.livelocked);
    EXPECT_EQ(sys_on.debugRead(c_on.addr()), 8u * 30);
    EXPECT_NE(dumps.find("(throttled: "), std::string::npos)
        << "no parked transaction was classified throttled:\n" << dumps;
}

// ----- Fault accounting under loss + overload -----

TEST(ServeFaults, LedgerClosesUnderLossAndOverload)
{
    // Message loss, retransmission, combining, backpressure, priority,
    // and backoff all at once under saturating open-loop arrivals: the
    // fault-accounting ledger must still reconcile exactly — no
    // retransmitted fetch&add double-applied through a combined batch,
    // no drop or retry unaccounted for.
    Config cfg = smallConfig(SyncPolicy::UNC, 8);
    cfg.openloop.enabled = true;
    cfg.openloop.rate_ppc = 0.02;
    cfg.openloop.burst = 4;
    cfg.openloop.ops_per_proc = 48;
    cfg.openloop.queue_cap = 32;
    cfg.openloop.slo_cycles = 1000;
    cfg.serve.enabled = true;
    cfg.faults.enabled = true;
    cfg.faults.msg_drop_prob = 0.01;
    cfg.faults.req_timeout = 2000;
    System sys(cfg);
    OpenLoopResult r = runOpenLoop(sys, Primitive::FAP);

    EXPECT_TRUE(r.completed_run);
    EXPECT_TRUE(r.correct);
    for (const std::string &v : checkCoherence(sys))
        ADD_FAILURE() << v;
    for (const std::string &v : checkFaultAccounting(sys))
        ADD_FAILURE() << v;
    // Anti-vacuous: the run must actually lose messages and combine.
    EXPECT_GT(sys.faultPlan().counters().msg_drops, 0u);
    const ServeStats &st = sys.serveStats();
    EXPECT_EQ(st.served, st.slots + st.coalesced);
    EXPECT_GT(st.coalesced, 0u);
}

// ----- Zero cost when off -----

TEST(ServeOff, LeavesStatsJsonShapeUntouched)
{
    Config cfg = smallConfig();
    System sys(cfg);
    Addr a = sys.allocSync();
    sys.spawn(doStore(sys.proc(0), a, 7));
    runAll(sys);

    EXPECT_EQ(sys.serveStats().throttle_events, 0u);
    std::string stats = sys.statsJson();
    EXPECT_EQ(stats.find("\"serve\""), std::string::npos);
    EXPECT_EQ(stats.find("rejected_throttled"), std::string::npos);
    const ServeStats &st = sys.serveStats();
    EXPECT_EQ(st.slots, 0u);
    EXPECT_EQ(st.served, 0u);
}

} // namespace
