/**
 * @file
 * Tests of the pure transition-function API (proto/transition.hh):
 *
 *  - purity: tf::step on the same (state, msg) twice yields
 *    byte-identical successor states and outcomes, and never mutates
 *    its input state;
 *  - stat-shape stability: the statsJson of a fixed Table 1-style
 *    counter run is byte-identical to the committed baseline, pinning
 *    the refactored driver's counters to the event-driven engine's.
 *    A second baseline pins a run with every optional stats group on,
 *    and a third that run's telemetry export. Regenerate with
 *    DSM_REGEN_BASELINES=1 after an *intended* stats change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "cpu/system.hh"
#include "helpers.hh"
#include "proto/transition.hh"
#include "sync/lockfree_counter.hh"
#include "workloads/openloop.hh"

using namespace dsm;

namespace {

constexpr Addr BLOCK = BLOCK_BYTES;

/** A fixed world view for driving transitions without a System. */
struct FakeCtx : tf::StepCtx
{
    DirEntry de;
    std::array<Word, BLOCK_WORDS> blk{};

    bool isSync(Addr) const override { return true; }
    DirEntry dirEntry(Addr) const override { return de; }
    Word
    memWord(Addr a) const override
    {
        return blk[wordInBlock(a)];
    }
    std::array<Word, BLOCK_WORDS>
    memBlock(Addr) const override
    {
        return blk;
    }
    std::uint64_t activeTxnId(NodeId) const override { return 0; }
};

Config
twoNodeConfig(SyncPolicy pol)
{
    Config cfg;
    cfg.machine.num_procs = 2;
    cfg.machine.mesh_x = 2;
    cfg.machine.mesh_y = 1;
    cfg.machine.cache_sets = 1;
    cfg.machine.cache_ways = 1;
    cfg.sync.policy = pol;
    return cfg;
}

tf::Env
envFor(const Config &cfg, NodeId self, const FakeCtx &ctx)
{
    tf::Env e;
    e.cfg = &cfg;
    e.self = self;
    e.ctx = &ctx;
    return e;
}

} // namespace

TEST(Transition, StepIsPureAtHome)
{
    Config cfg = twoNodeConfig(SyncPolicy::INV);
    FakeCtx ctx;
    tf::Env env = envFor(cfg, 1, ctx);

    Msg m;
    m.type = MsgType::GET_X;
    m.src = 0;
    m.dst = 1;
    m.requester = 0;
    m.addr = BLOCK;
    m.word_addr = BLOCK;
    m.op = AtomicOp::FAA;
    m.value = 1;
    m.chain = 1;

    tf::CtrlState s(1, 1);
    const std::string before = tf::debugString(s);

    tf::StepResult r1 = tf::step(env, s, m);
    tf::StepResult r2 = tf::step(env, s, m);

    EXPECT_EQ(tf::debugString(s), before)
        << "step() mutated its const input state";
    EXPECT_EQ(tf::debugString(r1.next), tf::debugString(r2.next));
    EXPECT_EQ(tf::debugString(r1.out), tf::debugString(r2.out));
    EXPECT_FALSE(r1.out.effects.empty());
}

TEST(Transition, StepIsPureAtRequester)
{
    Config cfg = twoNodeConfig(SyncPolicy::INV);
    FakeCtx ctx;
    tf::Env env = envFor(cfg, 0, ctx);

    // Put node 0 into the waiting-for-DATA_X state via a real issue.
    tf::CtrlState s(1, 1);
    tf::OpReq req;
    req.op = AtomicOp::FAA;
    req.addr = BLOCK;
    req.value = 1;
    tf::Outcome issued = tf::issue(env, s, req);
    ASSERT_TRUE(s.txn.active);
    ASSERT_TRUE(s.txn.waiting);
    ASSERT_FALSE(issued.effects.empty());

    Msg m;
    m.type = MsgType::DATA_X;
    m.src = 1;
    m.dst = 0;
    m.requester = 0;
    m.addr = BLOCK;
    m.word_addr = BLOCK;
    m.has_data = true;
    m.data = {7, 0, 0, 0};
    m.chain = 2;

    const std::string before = tf::debugString(s);
    tf::StepResult r1 = tf::step(env, s, m);
    tf::StepResult r2 = tf::step(env, s, m);

    EXPECT_EQ(tf::debugString(s), before);
    EXPECT_EQ(tf::debugString(r1.next), tf::debugString(r2.next));
    EXPECT_EQ(tf::debugString(r1.out), tf::debugString(r2.out));
    // The grant completes the fetch&add: old value 7.
    bool completed = false;
    for (const tf::Effect &ef : r1.out.effects) {
        if (ef.kind == tf::EffectKind::COMPLETE) {
            completed = true;
            EXPECT_EQ(ef.value, 7u);
        }
    }
    EXPECT_TRUE(completed);
    // Retiring the transaction (txn.active = false) is the driver's
    // job on committing COMPLETE; the pure layer only records the
    // response.
    EXPECT_TRUE(r1.next.txn.resp_seen);
}

TEST(Transition, IssueIsDeterministic)
{
    Config cfg = twoNodeConfig(SyncPolicy::UNC);
    FakeCtx ctx;
    tf::Env env = envFor(cfg, 0, ctx);

    tf::OpReq req;
    req.op = AtomicOp::FAA;
    req.addr = BLOCK;
    req.value = 1;

    tf::CtrlState a(1, 1), b(1, 1);
    tf::Outcome oa = tf::issue(env, a, req);
    tf::Outcome ob = tf::issue(env, b, req);
    EXPECT_EQ(tf::debugString(a), tf::debugString(b));
    EXPECT_EQ(tf::debugString(oa), tf::debugString(ob));
}

TEST(Transition, FanOutPastInlineCapacityCommitsInOrder)
{
    // Fifteen sharers of one line, then a store by one of them: the
    // home's outcome carries an INV send for each of the other fourteen
    // (plus profiler records), far past the inline effect capacity, and
    // the controller must put every one on the mesh in outcome order.
    Config cfg = dsmtest::smallConfig(SyncPolicy::INV, 16);
    cfg.trace.enabled = true;
    cfg.trace.categories = traceBit(TraceCat::MSG_SEND);
    System sys(cfg);
    Addr a = sys.allocAt(0, BLOCK_BYTES);
    for (NodeId n = 1; n < 16; ++n)
        dsmtest::runOp(sys, n, AtomicOp::LOAD, a);
    sys.tracer().clear();
    dsmtest::runOp(sys, 15, AtomicOp::STORE, a, 99);

    std::vector<NodeId> invalidated;
    for (const TraceEvent &ev : sys.tracer().events())
        if (ev.op == static_cast<std::uint8_t>(MsgType::INV)) {
            EXPECT_EQ(ev.node, 0) << "INV not sent by the home";
            invalidated.push_back(ev.peer);
        }
    std::vector<NodeId> want;
    for (NodeId n = 1; n < 15; ++n)
        want.push_back(n);
    EXPECT_EQ(invalidated, want);
    EXPECT_EQ(sys.debugRead(a), 99u);
    for (NodeId n = 1; n < 15; ++n)
        EXPECT_EQ(sys.ctrl(n).cache().stateOf(a), LineState::INVALID)
            << "node " << n;
    dsmtest::expectCoherent(sys);
}

namespace {

Task
incTimes(Proc &p, LockFreeCounter &c, int n)
{
    for (int i = 0; i < n; ++i)
        co_await c.fetchInc(p);
}

/** The fixed Table 1-style run the baseline pins: paper-default
 *  64-node machine, INV policy, four contending fetch&add loops. */
std::string
baselineRunJson()
{
    Config cfg; // paper machine: 64 nodes, 8x8 mesh
    cfg.sync.policy = SyncPolicy::INV;
    System sys(cfg);
    LockFreeCounter ctr(sys, Primitive::FAP);
    for (NodeId p = 0; p < 4; ++p)
        sys.spawn(incTimes(sys.proc(p), ctr, 2));
    RunResult r = sys.run();
    EXPECT_TRUE(r.completed);
    return sys.statsJson();
}

/** The two documents the all-groups run renders, in render order. */
struct AllGroupsJson
{
    std::string stats;
    std::string telemetry;
};

/**
 * A p=16 open-loop serving run with every optional stats group on:
 * serve "1", the chaos_sweep "moderate" faults with loss recovery, the
 * watchdog, transaction tracing, telemetry, and an event-trace ring
 * small enough to wrap. statsJson is rendered first: telemetryJson()
 * finalizes the sampler, which adds the residual window.
 */
AllGroupsJson
allGroupsRunJson()
{
    Config cfg;
    cfg.machine.num_procs = 16;
    cfg.machine.mesh_x = 4;
    cfg.machine.mesh_y = 4;
    cfg.sync.policy = SyncPolicy::UNC;
    EXPECT_EQ(cfg.openloop.parse("rate=0.004,ops_per_proc=128,"
                                 "slo_cycles=2000"),
              "");
    EXPECT_EQ(cfg.serve.parse("1"), "");
    EXPECT_EQ(cfg.faults.parse(
                  "jitter_prob=0.002,jitter_max=16,drop_prob=0.0005,"
                  "reorder_prob=0.001,reorder_max=32,dup_prob=0.001,"
                  "dup_delay=64,corrupt_prob=0.0005,req_timeout=2000"),
              "");
    cfg.watchdog.enabled = true;
    cfg.watchdog.max_retries = 100000;
    cfg.watchdog.max_txn_age = 5'000'000;
    cfg.watchdog.scan_period = 50'000;
    cfg.txn_trace.enabled = true;
    cfg.telemetry.enabled = true;
    cfg.trace.enabled = true;
    cfg.trace.categories = TRACE_ALL;
    cfg.trace.capacity = 64;
    System sys(cfg);
    OpenLoopResult r = runOpenLoop(sys, Primitive::FAP);
    EXPECT_TRUE(r.completed_run);
    EXPECT_TRUE(r.correct);
    AllGroupsJson out;
    out.stats = sys.statsJson();
    out.telemetry = sys.telemetryJson();
    return out;
}

/** Compare @p json with tests/baselines/@p name, or rewrite it under
 *  DSM_REGEN_BASELINES. */
void
expectMatchesBaseline(const std::string &name, const std::string &json)
{
    const std::string path = std::string(DSM_TEST_BASELINE_DIR) + "/" + name;
    if (std::getenv("DSM_REGEN_BASELINES") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << json;
        GTEST_SKIP() << "baseline regenerated: " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing baseline " << path
        << " (regenerate with DSM_REGEN_BASELINES=1)";
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(json, buf.str())
        << "the JSON drifted from the committed baseline; if the "
           "change is intended, regenerate with DSM_REGEN_BASELINES=1";
}

} // namespace

TEST(Transition, StatsJsonMatchesCommittedBaseline)
{
    expectMatchesBaseline("statsjson_table1.json", baselineRunJson());
}

TEST(Transition, AllGroupsStatsJsonMatchesCommittedBaseline)
{
    std::string json = allGroupsRunJson().stats;
    // Anti-vacuous: every optional group is present in the document.
    for (const char *group : {"\"fault\":", "\"recovery\":", "\"txn\":",
                              "\"openloop\":", "\"serve\":",
                              "\"timeseries\":", "\"trace\":"})
        EXPECT_NE(json.find(group), std::string::npos) << group;
    expectMatchesBaseline("statsjson_all_groups.json", json);
}

TEST(Transition, AllGroupsTelemetryJsonMatchesCommittedBaseline)
{
    std::string json = allGroupsRunJson().telemetry;
    // Anti-vacuous: the gated series and sections are all present.
    for (const char *part :
         {"\"recovery_drops\"", "\"recovery_retransmits\"",
          "\"openloop_admitted\"", "\"openloop_queue_depth\"",
          "\"hot_lines\":[{", "\"links\":", "\"tail\":",
          "\"openloop\":{"})
        EXPECT_NE(json.find(part), std::string::npos) << part;
    expectMatchesBaseline("telemetryjson_all_groups.json", json);
}
