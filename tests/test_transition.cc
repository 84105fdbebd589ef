/**
 * @file
 * Tests of the pure transition-function API (proto/transition.hh):
 *
 *  - purity: tf::step on the same (state, msg) twice yields
 *    byte-identical successor states and outcomes, and never mutates
 *    its input state;
 *  - a transition golden: every home-targeted message in each
 *    directory state it handles (INV, INVd, INVs, UPD and UNC, loss
 *    recovery off and on), combined batches, the remote-side INV,
 *    UPDATE and forward cases, tf::issue for each op and line state,
 *    requester-side response flows and tf::step's dedup preamble,
 *    each outcome and successor state rendered with debugString and
 *    compared with tests/baselines/transitions.txt;
 *  - stat-shape stability: the statsJson of a fixed Table 1-style
 *    counter run is byte-identical to the committed baseline, pinning
 *    the refactored driver's counters to the event-driven engine's.
 *    A second baseline pins a run with every optional stats group on,
 *    and a third that run's telemetry export;
 *  - a tracer golden: a small chaos-faulted LL/SC counter run with
 *    every tracer category on, through exportText() and
 *    exportChromeJson(), against tests/baselines/tracer_all_categories.*.
 *
 * Regenerate a baseline with DSM_REGEN_BASELINES=1 after an *intended*
 * change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
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
    /** Node n's active transaction id is txn_base + n (0 = none). */
    std::uint64_t txn_base = 0;

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
    std::uint64_t
    activeTxnId(NodeId n) const override
    {
        return txn_base == 0 ? 0 : txn_base + static_cast<std::uint64_t>(n);
    }
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

TEST(Transition, UpdateFanOutSpillsMessagesInEffectOrder)
{
    // A fetch&add at the home of an UPD block shared by the 63 other
    // nodes of the paper machine: one UPDATE per sharer, far past the
    // outcome's inline message capacity. Each SEND effect names its own
    // message, and the spilled list gives them back in effect order.
    Config cfg; // paper machine: 64 nodes, 8x8 mesh
    cfg.sync.policy = SyncPolicy::UPD;
    const NodeId home = homeOf(BLOCK, cfg.machine.num_procs);
    const NodeId req = 9;
    FakeCtx ctx;
    ctx.de.state = DirState::SHARED;
    ctx.de.sharers = ~(std::uint64_t{1} << req);
    ctx.blk = {5, 0, 0, 0};
    tf::Env env = envFor(cfg, home, ctx);
    tf::CtrlState s(1, 1);

    Msg m;
    m.type = MsgType::UPD_REQ;
    m.src = req;
    m.dst = home;
    m.requester = req;
    m.addr = BLOCK;
    m.word_addr = BLOCK;
    m.op = AtomicOp::FAA;
    m.value = 1;
    m.chain = 1;
    tf::Outcome o = tf::deliver(env, s, m);

    std::vector<NodeId> updated;
    std::vector<MsgType> types;
    std::uint32_t slot = 0;
    for (const tf::Effect &ef : o.effects) {
        if (ef.kind != tf::EffectKind::SEND)
            continue;
        EXPECT_EQ(ef.slot, slot++);
        const Msg &sent = o.msg(ef);
        types.push_back(sent.type);
        if (sent.type == MsgType::UPDATE) {
            EXPECT_EQ(sent.result, 6u) << "to " << sent.dst;
            updated.push_back(sent.dst);
        }
    }
    std::vector<NodeId> want;
    for (NodeId n = 0; n < cfg.machine.num_procs; ++n)
        if (n != req)
            want.push_back(n);
    EXPECT_EQ(updated, want);
    ASSERT_EQ(types.size(), 64u);
    EXPECT_EQ(types.back(), MsgType::UPD_RESP);
    EXPECT_EQ(o.sends.size(), 64u);
    EXPECT_TRUE(o.sends.spilled());
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

// ---------------------------------------------------------------------
// Transition golden: every protocol flow's Outcome and successor state,
// rendered with debugString, against tests/baselines/transitions.txt.

/** A coherence policy with its compare_and_swap flavour. */
struct Flavour
{
    const char *name;
    SyncPolicy policy;
    CasVariant variant;
};

constexpr Flavour INV_F{"INV", SyncPolicy::INV, CasVariant::PLAIN};
constexpr Flavour INVD_F{"INVd", SyncPolicy::INV, CasVariant::DENY};
constexpr Flavour INVS_F{"INVs", SyncPolicy::INV, CasVariant::SHARE};
constexpr Flavour UPD_F{"UPD", SyncPolicy::UPD, CasVariant::PLAIN};
constexpr Flavour UNC_F{"UNC", SyncPolicy::UNC, CasVariant::PLAIN};

/** Four nodes: BLOCK's home is node 1; node 0 is the requester. */
constexpr NodeId HOME = 1;
constexpr NodeId REQ = 0;
constexpr NodeId PENDING = 3; ///< a busy entry's pending requester
constexpr Addr WORD = BLOCK + WORD_BYTES;
constexpr Addr OTHER = 2 * BLOCK_BYTES; ///< same cache set, home 2
constexpr std::uint64_t REQ_SEQ = 5;
constexpr std::uint64_t PENDING_SEQ = 9;
const std::array<Word, BLOCK_WORDS> MEM_BLOCK{10, 20, 30, 40};
const std::array<Word, BLOCK_WORDS> OWNER_BLOCK{11, 21, 31, 41};

std::uint64_t
bit(NodeId n)
{
    return 1ULL << n;
}

std::uint64_t
txnOf(NodeId n)
{
    return 40 + static_cast<std::uint64_t>(n);
}

Config
goldenConfig(const Flavour &f, bool recovery, bool reorder = false)
{
    Config cfg;
    cfg.machine.num_procs = 4;
    cfg.machine.mesh_x = 2;
    cfg.machine.mesh_y = 2;
    cfg.machine.cache_sets = 1;
    cfg.machine.cache_ways = 1;
    cfg.machine.max_memory_reservations = 2;
    cfg.sync.policy = f.policy;
    cfg.sync.cas_variant = f.variant;
    cfg.faults.enabled = recovery || reorder;
    if (recovery)
        cfg.faults.req_timeout = 2000;
    if (reorder)
        cfg.faults.reorder_prob = 0.5;
    return cfg;
}

std::string
flavourLabel(const Flavour &f, bool recovery, bool reorder = false)
{
    std::string s = f.name;
    s += recovery ? " rec" : " norec";
    if (reorder)
        s += " reorder";
    return s;
}

/** Append one case: its label, outcome, and successor state. */
void
renderCase(std::string &out, const std::string &label,
           const tf::Outcome &o, const tf::CtrlState &s)
{
    out += "== " + label + "\n" + tf::debugString(o);
    const CacheStats &cs = s.cache.stats();
    out += "-- state\n" + tf::debugString(s) + "cache{hits=" +
           std::to_string(cs.hits) + " misses=" + std::to_string(cs.misses) +
           " evictions=" + std::to_string(cs.evictions) + " inv_recv=" +
           std::to_string(cs.invalidations_received) +
           "} fill_raced=" + std::to_string(s.txn.fill_raced) + "\n";
}

/** A named directory entry for the home cases. */
struct DirCase
{
    const char *name;
    DirEntry e;
};

std::vector<DirCase>
dirCases()
{
    std::vector<DirCase> v;
    DirEntry e;
    e.reservations = bit(REQ) | bit(2);
    e.serial = 7;
    v.push_back({"uncached", e});
    e = DirEntry{};
    e.state = DirState::SHARED;
    e.sharers = bit(REQ) | bit(HOME) | bit(3);
    v.push_back({"shared with requester", e});
    e.sharers = bit(2) | bit(3);
    v.push_back({"shared without requester", e});
    e = DirEntry{};
    e.state = DirState::EXCLUSIVE;
    e.owner = REQ;
    v.push_back({"exclusive at requester", e});
    e.owner = 2;
    v.push_back({"exclusive elsewhere", e});
    e.busy = true;
    e.pending_requester = PENDING;
    v.push_back({"busy", e});
    DirEntry w = e;
    w.wb_received = true;
    v.push_back({"wb_received", w});
    DirEntry a = e;
    a.await_wb = true;
    v.push_back({"await_wb", a});
    return v;
}

/** A home-targeted message template. */
struct HomeMsg
{
    MsgType type;
    AtomicOp op = AtomicOp::LOAD;
    Word value = 0;
    Word expected = 0;
    Word serial = 0;
    const char *tag = "";
};

/** The in-memory operations a UNC_REQ or UPD_REQ can carry. */
std::vector<HomeMsg>
memOps(MsgType t)
{
    return {
        {t, AtomicOp::LOAD, 0, 0, 0, "load"},
        {t, AtomicOp::STORE, 99, 0, 0, "store 99"},
        {t, AtomicOp::STORE, 20, 0, 0, "store unchanged"},
        {t, AtomicOp::FAA, 5, 0, 0, "faa 5"},
        {t, AtomicOp::FAA, 0, 0, 0, "faa 0"},
        {t, AtomicOp::TAS, 1, 0, 0, "tas"},
        {t, AtomicOp::FAS, 99, 0, 0, "fas"},
        {t, AtomicOp::FAO, 6, 0, 0, "fao"},
        {t, AtomicOp::CAS, 21, 20, 0, "cas equal"},
        {t, AtomicOp::CAS, 21, 3, 0, "cas unequal"},
        {t, AtomicOp::LL, 0, 0, 0, "ll"},
        {t, AtomicOp::SC, 77, 0, 0, "sc"},
        {t, AtomicOp::LLS, 0, 0, 0, "lls"},
        {t, AtomicOp::SCS, 77, 7, 7, "scs current serial"},
        {t, AtomicOp::SCS, 77, 6, 6, "scs stale serial"},
    };
}

/** The home messages each flavour sends. */
std::vector<HomeMsg>
homeMsgs(const Flavour &f)
{
    if (f.policy == SyncPolicy::UNC)
        return memOps(MsgType::UNC_REQ);
    if (f.policy == SyncPolicy::UPD) {
        std::vector<HomeMsg> v = memOps(MsgType::UPD_REQ);
        v.push_back({MsgType::GET_S});
        v.push_back({MsgType::DROP_NOTIFY});
        return v;
    }
    if (f.variant == CasVariant::DENY)
        return {{MsgType::CAS_HOME, AtomicOp::CAS, 21, 20, 0, "equal"},
                {MsgType::CAS_HOME, AtomicOp::CAS, 21, 3, 0, "unequal"},
                {MsgType::CAS_OWNER_FAIL}};
    if (f.variant == CasVariant::SHARE)
        return {{MsgType::CAS_HOME, AtomicOp::CAS, 21, 20, 0, "equal"},
                {MsgType::CAS_HOME, AtomicOp::CAS, 21, 3, 0, "unequal"},
                {MsgType::CAS_OWNER_FAIL_S}};
    return {{MsgType::GET_S},
            {MsgType::GET_X, AtomicOp::FAA, 5},
            {MsgType::UPGRADE, AtomicOp::FAA, 5},
            {MsgType::SC_REQ, AtomicOp::SC, 77},
            {MsgType::WB_DATA},
            {MsgType::DROP_NOTIFY},
            {MsgType::OWNER_DATA_S},
            {MsgType::OWNER_DATA_X},
            {MsgType::FWD_NACK_RETRY},
            {MsgType::FWD_NACK_WB}};
}

/** A request from @p src to BLOCK's home. */
Msg
request(MsgType t, NodeId src, bool recovery)
{
    Msg m;
    m.type = t;
    m.src = src;
    m.dst = HOME;
    m.requester = src;
    m.addr = BLOCK;
    m.word_addr = WORD;
    m.chain = 1;
    m.txn_id = txnOf(src);
    m.seq = recovery ? REQ_SEQ : 0;
    m.attempt = 2;
    return m;
}

/** Build @p hm as sent to the home in directory state @p e; false when
 *  that state cannot receive it. */
bool
homeMsgFor(const HomeMsg &hm, const DirEntry &e, bool recovery, Msg *out)
{
    bool from_owner = hm.type == MsgType::WB_DATA || ownerReply(hm.type);
    if (from_owner && e.state != DirState::EXCLUSIVE)
        return false;
    if (ownerReply(hm.type) && !e.busy)
        return false;
    if (hm.type == MsgType::UNC_REQ &&
        (e.state != DirState::UNCACHED || e.busy))
        return false;
    if (hm.type == MsgType::UPD_REQ &&
        (e.state == DirState::EXCLUSIVE || e.busy))
        return false;
    Msg m = request(hm.type, from_owner ? e.owner : REQ, recovery);
    m.op = hm.op;
    m.value = hm.value;
    m.expected = hm.expected;
    m.serial = hm.serial;
    if (from_owner) {
        m.has_data = hm.type != MsgType::CAS_OWNER_FAIL &&
                     hm.type != MsgType::FWD_NACK_RETRY &&
                     hm.type != MsgType::FWD_NACK_WB;
        if (m.has_data)
            m.data = OWNER_BLOCK;
        m.result = 21;
    }
    if (ownerReply(hm.type)) {
        // The owner answers the forward of PENDING's request.
        m.requester = e.pending_requester;
        m.chain = 3;
        m.txn_id = txnOf(e.pending_requester);
        m.seq = recovery ? PENDING_SEQ : 0;
    }
    *out = m;
    return true;
}

/** The home's controller state as tryDedup leaves it for @p batch. */
tf::CtrlState
homeState(bool recovery, const std::vector<Msg> &batch)
{
    tf::CtrlState s(1, 1);
    if (recovery) {
        s.dedup.resize(4);
        s.dedup[PENDING].seq = PENDING_SEQ;
        for (const Msg &m : batch)
            if (recoverableRequest(m.type))
                s.dedup[static_cast<std::size_t>(m.src)].seq = m.seq;
    }
    return s;
}

void
goldenHomeCases(std::string &out)
{
    for (const Flavour *f : {&INV_F, &INVD_F, &INVS_F, &UPD_F, &UNC_F}) {
        for (bool rec : {false, true}) {
            Config cfg = goldenConfig(*f, rec);
            for (const HomeMsg &hm : homeMsgs(*f)) {
                for (const DirCase &dc : dirCases()) {
                    if (f->policy != SyncPolicy::INV &&
                        dc.e.state == DirState::EXCLUSIVE)
                        continue;
                    Msg m;
                    if (!homeMsgFor(hm, dc.e, rec, &m))
                        continue;
                    FakeCtx ctx;
                    ctx.de = dc.e;
                    ctx.blk = MEM_BLOCK;
                    ctx.txn_base = 100;
                    tf::CtrlState s = homeState(rec, {m});
                    tf::Outcome o =
                        tf::deliver(envFor(cfg, HOME, ctx), s, m);
                    renderCase(out,
                               "home " + flavourLabel(*f, rec) + " " +
                                   toString(m.type) +
                                   (*hm.tag != '\0' ? " " : "") + hm.tag +
                                   " from " + std::to_string(m.src) +
                                   " @ " + dc.name,
                               o, s);
                }
            }
        }
    }
}

/** A combinable batch: one member per (source, operand). */
std::vector<Msg>
batchOf(MsgType t, const std::vector<std::pair<NodeId, Word>> &members,
        bool recovery)
{
    std::vector<Msg> batch;
    for (const auto &[src, operand] : members) {
        Msg m = request(t, src, recovery);
        if (t != MsgType::GET_S) {
            m.op = AtomicOp::FAA;
            m.value = operand;
        }
        batch.push_back(m);
    }
    return batch;
}

void
goldenCombinedCases(std::string &out)
{
    struct BatchCase
    {
        const Flavour *f;
        MsgType type;
        std::vector<std::pair<NodeId, Word>> members;
        const char *tag;
    };
    const std::vector<BatchCase> cases = {
        {&INV_F, MsgType::GET_S, {{0, 0}, {2, 0}, {3, 0}}, "three fills"},
        {&UNC_F, MsgType::UNC_REQ, {{0, 5}, {2, 6}, {3, 7}}, "faa 5+6+7"},
        {&UPD_F, MsgType::UPD_REQ, {{0, 5}, {2, 6}}, "faa 5+6"},
        {&UPD_F, MsgType::UPD_REQ, {{0, 0}, {2, 0}}, "faa 0+0"},
    };
    for (const BatchCase &bc : cases) {
        for (bool rec : {false, true}) {
            Config cfg = goldenConfig(*bc.f, rec);
            for (const DirCase &dc : dirCases()) {
                if (dc.e.state == DirState::EXCLUSIVE ||
                    (bc.type == MsgType::UNC_REQ &&
                     dc.e.state != DirState::UNCACHED))
                    continue;
                FakeCtx ctx;
                ctx.de = dc.e;
                ctx.blk = MEM_BLOCK;
                std::vector<Msg> batch = batchOf(bc.type, bc.members, rec);
                tf::CtrlState s = homeState(rec, batch);
                tf::Outcome o =
                    tf::deliverCombined(envFor(cfg, HOME, ctx), s, batch);
                renderCase(out,
                           "combined " + flavourLabel(*bc.f, rec) + " " +
                               toString(bc.type) + " " + bc.tag +
                               " @ " + dc.name,
                           o, s);
            }
        }
    }
}

/** Node @p self's cache holding BLOCK in @p state (with a reservation
 *  on it when valid), or OTHER exclusive when @p state is INVALID. */
tf::CtrlState
nodeState(LineState state, const Config &cfg, NodeId self)
{
    tf::CtrlState s(1, 1);
    if (cfg.faults.recoveryEnabled()) {
        s.dedup.resize(4);
        s.next_seq = 4;
    }
    Victim v;
    CacheLine *line = s.cache.allocate(state == LineState::INVALID ? OTHER
                                                                   : BLOCK,
                                       &v);
    line->state = state == LineState::INVALID ? LineState::EXCLUSIVE
                                              : state;
    line->data = {12, 22, 32, static_cast<Word>(42 + self)};
    if (state != LineState::INVALID)
        s.cache.setReservation(WORD, 0);
    return s;
}

void
goldenRemoteCases(std::string &out)
{
    struct RemoteCase
    {
        const Flavour *f;
        MsgType type;
        Word expected;
        LineState line;
        bool waiting;
        bool reorder;
        const char *tag;
    };
    const std::vector<RemoteCase> cases = {
        {&INV_F, MsgType::INV, 0, LineState::SHARED, false, false, "shared"},
        {&INV_F, MsgType::INV, 0, LineState::INVALID, false, false, "absent"},
        {&INV_F, MsgType::INV, 0, LineState::INVALID, true, false,
         "absent, fill in flight"},
        {&INV_F, MsgType::INV, 0, LineState::INVALID, true, true,
         "absent, fill in flight, reorder"},
        {&UPD_F, MsgType::UPDATE, 0, LineState::SHARED, false, false,
         "shared"},
        {&UPD_F, MsgType::UPDATE, 0, LineState::INVALID, false, false,
         "absent"},
        {&UPD_F, MsgType::UPDATE, 0, LineState::INVALID, true, false,
         "absent, fill in flight"},
        {&UPD_F, MsgType::UPDATE, 0, LineState::INVALID, true, true,
         "absent, fill in flight, reorder"},
        {&INV_F, MsgType::FWD_GET_S, 0, LineState::EXCLUSIVE, false, false,
         "owner"},
        {&INV_F, MsgType::FWD_GET_S, 0, LineState::INVALID, false, false,
         "written back"},
        {&INV_F, MsgType::FWD_GET_S, 0, LineState::EXCLUSIVE, true, false,
         "owner still waiting"},
        {&INV_F, MsgType::FWD_GET_X, 0, LineState::EXCLUSIVE, false, false,
         "owner"},
        {&INV_F, MsgType::FWD_GET_X, 0, LineState::INVALID, false, false,
         "written back"},
        {&INV_F, MsgType::FWD_GET_X, 0, LineState::EXCLUSIVE, true, false,
         "owner still waiting"},
        {&INVD_F, MsgType::FWD_CAS, 22, LineState::EXCLUSIVE, false, false,
         "equal"},
        {&INVD_F, MsgType::FWD_CAS, 3, LineState::EXCLUSIVE, false, false,
         "unequal"},
        {&INVD_F, MsgType::FWD_CAS, 22, LineState::INVALID, false, false,
         "written back"},
        {&INVD_F, MsgType::FWD_CAS, 22, LineState::EXCLUSIVE, true, false,
         "owner still waiting"},
        {&INVS_F, MsgType::FWD_CAS, 22, LineState::EXCLUSIVE, false, false,
         "equal"},
        {&INVS_F, MsgType::FWD_CAS, 3, LineState::EXCLUSIVE, false, false,
         "unequal"},
    };
    const NodeId self = 2;
    for (const RemoteCase &rc : cases) {
        for (bool rec : {false, true}) {
            Config cfg = goldenConfig(*rc.f, rec, rc.reorder);
            FakeCtx ctx;
            tf::CtrlState s = nodeState(rc.line, cfg, self);
            if (rc.waiting) {
                s.txn.active = true;
                s.txn.waiting = true;
                s.txn.op = AtomicOp::LOAD;
                s.txn.addr = BLOCK;
                s.txn.txn_id = txnOf(self);
            }
            Msg m = request(rc.type, HOME, rec);
            m.dst = self;
            m.requester = REQ;
            m.chain = 2;
            m.txn_id = txnOf(REQ);
            m.result = 55;
            m.value = 21;
            m.expected = rc.expected;
            m.op = rc.type == MsgType::FWD_CAS ? AtomicOp::CAS
                                               : AtomicOp::FAA;
            tf::Outcome o = tf::deliver(envFor(cfg, self, ctx), s, m);
            renderCase(out,
                       "remote " + flavourLabel(*rc.f, rec, rc.reorder) +
                           " " + toString(rc.type) + " " + rc.tag,
                       o, s);
        }
    }
}

void
goldenIssueCases(std::string &out)
{
    const AtomicOp ops[] = {
        AtomicOp::LOAD, AtomicOp::STORE, AtomicOp::LOAD_EXCL,
        AtomicOp::DROP_COPY, AtomicOp::TAS, AtomicOp::FAA, AtomicOp::FAS,
        AtomicOp::FAO, AtomicOp::CAS, AtomicOp::LL, AtomicOp::SC,
        AtomicOp::LLS, AtomicOp::SCS};
    for (const Flavour *f : {&INV_F, &INVD_F, &INVS_F, &UPD_F, &UNC_F}) {
        for (bool rec : {false, true}) {
            Config cfg = goldenConfig(*f, rec);
            for (AtomicOp op : ops) {
                bool inv = f->policy == SyncPolicy::INV;
                if (inv && (op == AtomicOp::LLS || op == AtomicOp::SCS))
                    continue; // in-memory primitives only
                if (f->variant != CasVariant::PLAIN && op != AtomicOp::CAS)
                    continue; // the variants differ from INV only there
                for (LineState ls : {LineState::INVALID, LineState::SHARED,
                                     LineState::EXCLUSIVE}) {
                    if ((ls == LineState::EXCLUSIVE && !inv) ||
                        (ls != LineState::INVALID &&
                         f->policy == SyncPolicy::UNC))
                        continue;
                    // The SC of a load_linked the home denied a
                    // reservation fails locally under UNC and UPD.
                    for (bool denied : {false, true}) {
                        if (denied && (inv || op != AtomicOp::SC))
                            continue;
                        FakeCtx ctx;
                        tf::CtrlState s = nodeState(ls, cfg, REQ);
                        s.resv_denied = denied;
                        s.resv_denied_block = denied ? BLOCK : 0;
                        tf::OpReq req;
                        req.op = op;
                        req.addr = WORD;
                        req.value = 21;
                        req.expected = 22;
                        req.txn_id = txnOf(REQ);
                        req.start = 100;
                        tf::Outcome o =
                            tf::issue(envFor(cfg, REQ, ctx), s, req);
                        renderCase(out,
                                   "issue " + flavourLabel(*f, rec) + " " +
                                       toString(op) + " line " +
                                       toString(ls) +
                                       (denied ? " reservation denied"
                                               : ""),
                                   o, s);
                    }
                }
            }
        }
    }
}

/** A reply of type @p t to @p req from @p src. */
Msg
replyTo(const Msg &req, MsgType t, NodeId src = HOME)
{
    Msg r;
    r.type = t;
    r.src = src;
    r.dst = req.src;
    r.requester = req.src;
    r.addr = req.addr;
    r.word_addr = req.word_addr;
    r.chain = 2;
    r.txn_id = req.txn_id;
    r.seq = req.seq;
    r.attempt = req.attempt;
    return r;
}

void
goldenResponseCases(std::string &out)
{
    /** One requester-side flow: issue, then deliver replies in order. */
    struct Flow
    {
        const Flavour *f;
        AtomicOp op;
        LineState line;
        bool fill_raced;
        std::vector<Msg> replies; ///< routing filled from the request
        const char *tag;
        /** The flow needs the recovery layer's stale-reply guards. */
        bool recovery_only = false;
    };
    auto reply = [](MsgType t, int acks = 0, bool success = false,
                    NodeId src = HOME) {
        Msg r;
        r.type = t;
        r.src = src;
        r.ack_count = acks;
        r.success = success;
        r.result = 20;
        r.serial = 8;
        r.data = {12, 22, 32, 42};
        r.has_data = t == MsgType::DATA_S || t == MsgType::DATA_X ||
                     t == MsgType::CAS_FAIL_S || t == MsgType::UPD_RESP;
        return r;
    };
    const std::vector<Flow> flows = {
        {&INV_F, AtomicOp::LOAD, LineState::INVALID, false,
         {reply(MsgType::DATA_S)}, "fill evicting an owned line"},
        {&INV_F, AtomicOp::LOAD, LineState::INVALID, true,
         {reply(MsgType::DATA_S)}, "raced fill"},
        {&INV_F, AtomicOp::LL, LineState::INVALID, false,
         {reply(MsgType::DATA_S)}, "fill"},
        {&INV_F, AtomicOp::LL, LineState::INVALID, true,
         {reply(MsgType::DATA_S)}, "raced fill"},
        {&INV_F, AtomicOp::FAA, LineState::INVALID, false,
         {reply(MsgType::DATA_X)}, "grant"},
        {&INV_F, AtomicOp::FAA, LineState::INVALID, false,
         {reply(MsgType::DATA_X, 2), reply(MsgType::INV_ACK, 0, false, 3),
          reply(MsgType::INV_ACK, 0, false, 3),
          reply(MsgType::INV_ACK, 0, false, 2)},
         "grant, two acks, one duplicated", true},
        {&INV_F, AtomicOp::FAA, LineState::INVALID, false,
         {reply(MsgType::DATA_X, 2), reply(MsgType::INV_ACK, 0, false, 3),
          reply(MsgType::INV_ACK, 0, false, 2)},
         "grant, two acks"},
        {&INV_F, AtomicOp::FAA, LineState::INVALID, false,
         {reply(MsgType::NACK)}, "nack"},
        {&INV_F, AtomicOp::FAA, LineState::INVALID, false,
         {reply(MsgType::NACK), reply(MsgType::NACK)}, "stale nack", true},
        {&INV_F, AtomicOp::FAA, LineState::SHARED, false,
         {reply(MsgType::UPG_ACK)}, "upgrade"},
        {&INV_F, AtomicOp::FAA, LineState::SHARED, false,
         {reply(MsgType::INV_ACK, 0, false, 3), reply(MsgType::UPG_ACK, 1)},
         "ack before upgrade"},
        {&INV_F, AtomicOp::SC, LineState::SHARED, false,
         {reply(MsgType::SC_RESP, 0, true)}, "success"},
        {&INV_F, AtomicOp::SC, LineState::SHARED, false,
         {reply(MsgType::SC_RESP, 1, true),
          reply(MsgType::INV_ACK, 0, false, 3)},
         "success, one ack"},
        {&INV_F, AtomicOp::SC, LineState::SHARED, false,
         {reply(MsgType::SC_RESP, 0, false)}, "failure"},
        {&INVD_F, AtomicOp::CAS, LineState::INVALID, false,
         {reply(MsgType::CAS_FAIL)}, "failure"},
        {&INVD_F, AtomicOp::CAS, LineState::INVALID, false,
         {reply(MsgType::DATA_X, 0, true)}, "equal"},
        {&INVS_F, AtomicOp::CAS, LineState::INVALID, false,
         {reply(MsgType::CAS_FAIL_S)}, "failure"},
        {&INVS_F, AtomicOp::CAS, LineState::INVALID, true,
         {reply(MsgType::CAS_FAIL_S)}, "raced failure"},
        {&UNC_F, AtomicOp::LL, LineState::INVALID, false,
         {reply(MsgType::UNC_RESP, 0, true)}, "reserved"},
        {&UNC_F, AtomicOp::LL, LineState::INVALID, false,
         {reply(MsgType::UNC_RESP, 0, false)}, "denied"},
        {&UNC_F, AtomicOp::FAA, LineState::INVALID, false,
         {reply(MsgType::UNC_RESP, 0, true)}, "result"},
        {&UPD_F, AtomicOp::FAA, LineState::INVALID, false,
         {reply(MsgType::UPD_RESP, 0, true)}, "result"},
        {&UPD_F, AtomicOp::FAA, LineState::SHARED, false,
         {reply(MsgType::UPD_RESP, 1, true),
          reply(MsgType::UPDATE_ACK, 0, false, 3)},
         "result, one ack"},
        {&UPD_F, AtomicOp::LL, LineState::INVALID, true,
         {reply(MsgType::UPD_RESP, 0, false)}, "raced, denied"},
    };
    for (const Flow &fl : flows) {
        for (bool rec : {false, true}) {
            if (fl.recovery_only && !rec)
                continue;
            Config cfg = goldenConfig(*fl.f, rec, fl.fill_raced);
            FakeCtx ctx;
            tf::Env env = envFor(cfg, REQ, ctx);
            tf::CtrlState s = nodeState(fl.line, cfg, REQ);
            tf::OpReq req;
            req.op = fl.op;
            req.addr = WORD;
            req.value = 21;
            req.expected = 22;
            req.txn_id = txnOf(REQ);
            req.start = 100;
            tf::Outcome issued = tf::issue(env, s, req);
            const Msg *sent = nullptr;
            for (const tf::Effect &ef : issued.effects)
                if (ef.kind == tf::EffectKind::SEND)
                    sent = &issued.msg(ef);
            ASSERT_NE(sent, nullptr) << fl.tag;
            Msg request = *sent;
            request.src = REQ;
            if (fl.fill_raced)
                s.txn.fill_raced = 1;
            std::string label = "response " + flavourLabel(*fl.f, rec) +
                                " " + toString(fl.op) + " " + fl.tag;
            int step = 0;
            for (const Msg &r : fl.replies) {
                Msg m = replyTo(request, r.type, r.src);
                m.ack_count = r.ack_count;
                m.success = r.success;
                m.result = r.result;
                m.serial = r.serial;
                m.data = r.data;
                m.has_data = r.has_data;
                tf::Outcome o = tf::deliver(env, s, m);
                renderCase(out,
                           label + " #" + std::to_string(++step) + " " +
                               toString(r.type),
                           o, s);
            }
        }
    }
}

/** tf::step's recovery dedup in front of delivery, at the home. */
void
goldenStepCases(std::string &out)
{
    Config cfg = goldenConfig(INV_F, true);
    FakeCtx ctx;
    ctx.blk = MEM_BLOCK;
    ctx.de.state = DirState::SHARED;
    ctx.de.sharers = bit(2);
    struct StepCase
    {
        MsgType type;
        std::uint64_t seq;
        bool has_reply;
        MsgType cached;
        bool replayed;
        const char *tag;
    };
    const std::vector<StepCase> cases = {
        {MsgType::GET_X, REQ_SEQ + 1, false, MsgType::NACK, false, "new"},
        {MsgType::GET_X, REQ_SEQ - 1, false, MsgType::NACK, false, "stale"},
        {MsgType::GET_X, REQ_SEQ, false, MsgType::NACK, false,
         "in progress"},
        {MsgType::GET_X, REQ_SEQ, true, MsgType::DATA_X, false, "replay"},
        {MsgType::GET_X, REQ_SEQ, true, MsgType::NACK, false,
         "replay nack"},
        {MsgType::GET_S, REQ_SEQ, true, MsgType::DATA_S, false,
         "re-execute"},
        {MsgType::GET_S, REQ_SEQ, true, MsgType::DATA_S, true,
         "injected duplicate"},
    };
    for (const StepCase &sc : cases) {
        tf::CtrlState s = homeState(true, {request(sc.type, REQ, true)});
        if (sc.has_reply) {
            s.dedup[REQ].has_reply = true;
            s.dedup[REQ].reply = replyTo(request(sc.type, REQ, true),
                                         sc.cached);
        }
        Msg m = request(sc.type, REQ, true);
        m.seq = sc.seq;
        m.attempt = 3;
        m.replayed = sc.replayed;
        tf::StepResult r = tf::step(envFor(cfg, HOME, ctx), s, m);
        renderCase(out,
                   std::string("step INV rec ") + toString(sc.type) + " " +
                       sc.tag,
                   r.out, r.next);
    }
}

/** Every golden case, rendered in a fixed order. */
std::string
transitionGolden()
{
    std::string out;
    goldenHomeCases(out);
    goldenCombinedCases(out);
    goldenRemoteCases(out);
    goldenIssueCases(out);
    goldenResponseCases(out);
    goldenStepCases(out);
    return out;
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

// Tracer golden: every trace category's records, through both exporters.

TEST(Transition, TracerRecordsMatchCommittedGolden)
{
    // A contended LL/SC counter on four nodes, every tracer category on,
    // with message loss (quarantine_k=2 quarantines a link) and
    // corruption armed: contention yields the NACK, RETRY and
    // reservation records, the faults the LINK_FAULT drops and the
    // quarantine.
    Config cfg;
    cfg.machine.num_procs = 4;
    cfg.machine.mesh_x = 2;
    cfg.machine.mesh_y = 2;
    cfg.machine.seed = 2;
    ASSERT_EQ(cfg.faults.parse("drop_prob=0.2,corrupt_prob=0.1,"
                               "req_timeout=2000,quarantine_k=2,"
                               "quarantine_window=1000000"),
              "");
    cfg.trace.enabled = true;
    cfg.trace.categories = TRACE_ALL;
    System sys(cfg);
    LockFreeCounter ctr(sys, Primitive::LLSC);
    for (NodeId p = 0; p < 4; ++p)
        sys.spawn(incTimes(sys.proc(p), ctr, 2));
    ASSERT_TRUE(sys.run().completed);
    const Recovery::Counters &rc = sys.recoveryState().counters();
    EXPECT_GT(rc.links_quarantined, 0u);
    EXPECT_GT(rc.corrupt_detected, 0u);

    const Tracer &tr = sys.tracer();
    EXPECT_EQ(tr.dropped(), 0u);
    std::set<TraceCat> seen;
    for (const TraceEvent &ev : tr.events())
        seen.insert(ev.cat);
    for (unsigned c = 0; c < NUM_TRACE_CATEGORIES; ++c)
        EXPECT_TRUE(seen.count(static_cast<TraceCat>(c)))
            << toString(static_cast<TraceCat>(c));
    expectMatchesBaseline("tracer_all_categories.txt", tr.exportText());
    expectMatchesBaseline("tracer_all_categories.json",
                          tr.exportChromeJson());
}

TEST(Transition, OutcomesMatchCommittedGolden)
{
    std::string golden = transitionGolden();
    // Anti-vacuous: each family of cases rendered something.
    for (const char *family : {"== home ", "== combined ", "== remote ",
                               "== issue ", "== response ", "== step "})
        EXPECT_NE(golden.find(family), std::string::npos) << family;
    expectMatchesBaseline("transitions.txt", golden);
}
