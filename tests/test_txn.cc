/**
 * @file
 * Tests for the end-to-end transaction tracer: per-phase latency
 * attribution (phase sums must equal end-to-end latency), Table 1
 * chain validation, spin-loop iteration tracking, the Chrome trace
 * export (nested phase slices + flow arrows), and byte-identity of the
 * traced Experiment harvest between serial and parallel sweeps.
 */

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "exp/experiment.hh"
#include "helpers.hh"
#include "proto/checker.hh"
#include "sync/lockfree_counter.hh"
#include "trace/txn.hh"

namespace {

using namespace dsmtest;

Config
txnConfig(SyncPolicy pol = SyncPolicy::INV, int procs = 4)
{
    Config cfg = smallConfig(pol, procs);
    cfg.txn_trace.enabled = true;
    return cfg;
}

Task
faaLoop(Proc &p, Addr a, int iters)
{
    for (int i = 0; i < iters; ++i)
        co_await p.fetchAdd(a, 1);
}

Task
tasLockLoop(Proc &p, Addr lock, int sections)
{
    for (int i = 0; i < sections; ++i) {
        while ((co_await p.testAndSet(lock)).value != 0) {
        }
        co_await p.compute(20);
        co_await p.store(lock, 0);
    }
}

/** Contended fetch_and_add run on a traced system. */
void
runContendedFaa(System &sys, int procs, int iters)
{
    Addr a = sys.allocSync();
    for (int p = 0; p < procs; ++p)
        sys.spawn(faaLoop(sys.proc(p), a, iters));
    runAll(sys);
}

TEST(TxnTrace, DisabledByDefault)
{
    System sys(smallConfig());
    Addr a = sys.allocSync();
    runOp(sys, 0, AtomicOp::FAA, a, 1);
    EXPECT_FALSE(sys.cfg().txn_trace.enabled);
    EXPECT_EQ(sys.txns().completed(), 0u);
    EXPECT_TRUE(sys.txns().records().empty());
    // The registry must keep its untraced shape: no txn section.
    EXPECT_EQ(sys.statsJson().find("\"txn\""), std::string::npos);
    EXPECT_TRUE(checkChains(sys).empty());
}

TEST(TxnTrace, ConfigRejectsZeroCapacity)
{
    Config cfg = txnConfig();
    cfg.txn_trace.capacity = 0;
    EXPECT_NE(cfg.validate().find("txn_trace.capacity"),
              std::string::npos);
}

TEST(TxnTrace, PhaseSumsEqualEndToEndLatency)
{
    System sys(txnConfig(SyncPolicy::INV, 8));
    runContendedFaa(sys, 8, 8);

    const TxnTracer &tx = sys.txns();
    EXPECT_EQ(tx.completed(), 64u);
    EXPECT_EQ(tx.phaseSumMismatches(), 0u);
    EXPECT_EQ(tx.chainDivergences(), 0u);
    EXPECT_EQ(tx.markAnomalies(), 0u);
    EXPECT_TRUE(checkChains(sys).empty());

    ASSERT_EQ(tx.records().size(), 64u);
    for (const TxnRecord &r : tx.records()) {
        Tick sum = 0;
        for (int ph = 0; ph < NUM_TXN_PHASES; ++ph)
            sum += r.phase_sum[ph];
        EXPECT_EQ(sum, r.complete - r.issue)
            << "txn " << r.id << " phases do not partition its latency";

        // Spans must tile [issue, complete] without gaps or overlap.
        Tick cursor = r.issue;
        for (const TxnSpan &s : r.spans) {
            EXPECT_EQ(s.start, cursor);
            EXPECT_LT(s.start, s.end);
            cursor = s.end;
        }
        EXPECT_EQ(cursor, r.complete);
    }

    // The aggregate view must agree with the per-record partition.
    const PhaseAttribution &at = tx.attribution();
    EXPECT_EQ(at.completed(), 64u);
    EXPECT_GT(at.allTotalStat()->count, 0u);
}

TEST(TxnTrace, StatsJsonGainsTxnSectionWhenEnabled)
{
    System sys(txnConfig(SyncPolicy::INV, 4));
    runContendedFaa(sys, 4, 2);
    std::string json = sys.statsJson();
    EXPECT_NE(json.find("\"txn\""), std::string::npos);
    EXPECT_NE(json.find("\"completed\""), std::string::npos);
    JsonValue doc;
    ASSERT_TRUE(parseJsonOrFail(json, &doc));
}

TEST(TxnTrace, DirectedChainsMatchTable1)
{
    // INV store to a remote-exclusive line: 4 serialized messages
    // (req -> home -> owner -> home -> requester); the follow-up store
    // hits the now-exclusive local copy: 0 messages.
    System sys(txnConfig(SyncPolicy::INV, 4));
    Addr a = sys.allocSyncAt(2);
    runOp(sys, 1, AtomicOp::STORE, a, 7); // node 1 becomes owner
    runOp(sys, 0, AtomicOp::STORE, a, 8); // remote exclusive: chain 4
    runOp(sys, 0, AtomicOp::STORE, a, 9); // cached exclusive: chain 0

    const TxnTracer &tx = sys.txns();
    ASSERT_EQ(tx.records().size(), 3u);
    const TxnRecord &remote = tx.records()[1];
    EXPECT_EQ(remote.fact.observed_chain, 4);
    EXPECT_EQ(remote.expected_chain, 4);
    EXPECT_TRUE(remote.fact.service.forwarded);
    EXPECT_EQ(remote.fact.service.owner, 1);
    const TxnRecord &hit = tx.records()[2];
    EXPECT_EQ(hit.fact.observed_chain, 0);
    EXPECT_EQ(hit.expected_chain, 0);
    EXPECT_EQ(tx.chainDivergences(), 0u);
}

TEST(TxnTrace, ExpectedChainFormula)
{
    ChainFact r;
    r.requester = 0;
    EXPECT_EQ(expectedChain(r), 0); // unserviced

    r.serviced = true;
    r.home = 1;
    EXPECT_EQ(expectedChain(r), 2); // req + reply

    r.home = 0;
    EXPECT_EQ(expectedChain(r), 0); // local home, no traffic

    r.home = 1;
    r.service.forwarded = true;
    r.service.owner = 3;
    EXPECT_EQ(expectedChain(r), 4); // via the remote owner

    // An invalidation to sharer 2 serializes req -> inv -> ack: 3, but
    // the forwarded reply chain (4) is longer and wins.
    r.service.fanout_mask = 1ull << 2;
    EXPECT_EQ(expectedChain(r), 4);

    r.service.forwarded = false;
    EXPECT_EQ(expectedChain(r), 3);

    // A sharer colocated with the requester acks locally: hop saved.
    r.service.fanout_mask = 1ull << 0;
    EXPECT_EQ(expectedChain(r), 2);
}

TEST(TxnTrace, RetryForgetsTheNackedAttempt)
{
    // Only the final attempt is validated against Table 1: a NACK
    // forgets what the home reported for the attempt it ended, and the
    // next serve() stands alone.
    ChainFact f;
    f.requester = 0;
    tf::ServiceFacts via_owner;
    via_owner.forwarded = true;
    via_owner.owner = 3;
    via_owner.fanout_mask = 1ull << 2;
    f.serve(1, via_owner);
    EXPECT_EQ(expectedChain(f), 4);

    f.retry();
    EXPECT_FALSE(f.serviced);
    EXPECT_EQ(f.home, INVALID_NODE);
    EXPECT_EQ(expectedChain(f), 0);

    f.serve(1, tf::ServiceFacts{});
    EXPECT_EQ(expectedChain(f), 2);
}

TEST(TxnTrace, SpinLoopIterationsRecorded)
{
    System sys(txnConfig(SyncPolicy::INV, 4));
    Addr lock = sys.allocSync();
    for (int p = 0; p < 4; ++p)
        sys.spawn(tasLockLoop(sys.proc(p), lock, 2));
    runAll(sys);

    const TxnTracer &tx = sys.txns();
    EXPECT_EQ(tx.phaseSumMismatches(), 0u);
    EXPECT_EQ(tx.chainDivergences(), 0u);
    bool spun = false;
    for (const TxnRecord &r : tx.records())
        if (r.fact.op == AtomicOp::TAS && r.loop_iter > 0)
            spun = true;
    EXPECT_TRUE(spun) << "contended TAS never recorded a spin iteration";
}

Task
counterLoop(Proc &p, LockFreeCounter &c, int incs)
{
    for (int i = 0; i < incs; ++i)
        co_await c.fetchInc(p);
}

/** A traced loop_iter run: its digest and its longest recorded streak. */
struct LoopIterRun
{
    std::uint64_t digest = 14695981039346656037ull;
    int max_loop_iter = 0;
};

/**
 * Eight nodes under @p pol, every transaction record kept: a
 * test_and_set lock loop without @p prim, else lock-free counter
 * increments through *prim. Folds each record's (id, op, loop_iter)
 * and the run's statsJson into one FNV-1a digest.
 */
LoopIterRun
runLoopIters(SyncPolicy pol, std::optional<Primitive> prim)
{
    constexpr int procs = 8;
    Config cfg = txnConfig(pol, procs);
    cfg.txn_trace.capacity = 1u << 20;
    System sys(cfg);
    Addr word = sys.allocSync();
    LockFreeCounter counter(sys, prim.value_or(Primitive::FAP), word);
    for (int p = 0; p < procs; ++p) {
        if (!prim)
            sys.spawn(tasLockLoop(sys.proc(p), word, 6));
        else
            sys.spawn(counterLoop(sys.proc(p), counter, 12));
    }
    runAll(sys);

    const TxnTracer &tx = sys.txns();
    EXPECT_EQ(tx.records().size(), tx.completed());
    EXPECT_EQ(tx.phaseSumMismatches(), 0u);
    LoopIterRun run;
    auto mix = [&run](const std::string &s) {
        for (unsigned char c : s) {
            run.digest ^= c;
            run.digest *= 1099511628211ull;
        }
    };
    for (const TxnRecord &r : tx.records()) {
        mix(csprintf("%llu:%s:%d;", static_cast<unsigned long long>(r.id),
                     toString(r.fact.op), r.loop_iter));
        run.max_loop_iter = std::max(run.max_loop_iter, r.loop_iter);
    }
    mix(sys.statsJson());
    return run;
}

TEST(TxnTrace, LoopIterationsMatchRecordedDigest)
{
    // Recorded before the spin streak moved from the processor model
    // into the transaction tracer.
    struct Case
    {
        SyncPolicy pol;
        std::optional<Primitive> prim;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {SyncPolicy::INV, std::nullopt, 0x65b9245845e7b84bull},
        {SyncPolicy::INV, Primitive::FAP, 0x8e213ff902d404e1ull},
        {SyncPolicy::INV, Primitive::CAS, 0xa0256f9cf997dcb6ull},
        {SyncPolicy::INV, Primitive::LLSC, 0x1a4248f3dd85ee97ull},
        {SyncPolicy::UPD, std::nullopt, 0x851c55faaf1d3162ull},
        {SyncPolicy::UPD, Primitive::FAP, 0x7e91a272f2945d76ull},
        {SyncPolicy::UPD, Primitive::CAS, 0xc560d49ee395a081ull},
        {SyncPolicy::UPD, Primitive::LLSC, 0x07675c894229c6ddull},
        {SyncPolicy::UNC, std::nullopt, 0x2b530923647f7344ull},
        {SyncPolicy::UNC, Primitive::FAP, 0x9ee10bebcd8f3e4aull},
        {SyncPolicy::UNC, Primitive::CAS, 0xadbc5681ad750621ull},
        {SyncPolicy::UNC, Primitive::LLSC, 0x700519641ff4d93full},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(toString(c.pol)) + " " +
                     (c.prim ? toString(*c.prim) : "TAS lock"));
        LoopIterRun run = runLoopIters(c.pol, c.prim);
        EXPECT_EQ(run.digest, c.digest);
        // Only a native fetch_and_Phi never fails an attempt.
        if (c.prim == Primitive::FAP)
            EXPECT_EQ(run.max_loop_iter, 0);
        else
            EXPECT_GT(run.max_loop_iter, 0);
    }
}

TEST(TxnTrace, ChromeExportNestedSlicesAndFlows)
{
    System sys(txnConfig(SyncPolicy::INV, 4));
    runContendedFaa(sys, 4, 4);

    std::string json = sys.txns().exportChromeJson();
    JsonValue doc;
    ASSERT_TRUE(parseJsonOrFail(json, &doc));
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    // Partition events; validate the required fields per kind.
    std::vector<const JsonValue *> roots, phases;
    std::map<double, int> flow_s, flow_f;
    bool has_process_name = false;
    for (const JsonValue &e : events->array) {
        std::string ph = e.str("ph");
        if (ph == "M") {
            has_process_name |= e.str("name") == "process_name";
            continue;
        }
        if (ph == "X") {
            ASSERT_TRUE(e.find("ts") != nullptr &&
                        e.find("ts")->isNumber());
            ASSERT_TRUE(e.find("dur") != nullptr &&
                        e.find("dur")->isNumber());
            if (e.str("cat") == "txn")
                roots.push_back(&e);
            else if (e.str("cat") == "txn_phase")
                phases.push_back(&e);
            continue;
        }
        if (ph == "s" || ph == "t" || ph == "f") {
            EXPECT_EQ(e.str("cat"), "txn_flow");
            double id = e.num("id");
            if (ph == "s")
                ++flow_s[id];
            if (ph == "f") {
                ++flow_f[id];
                EXPECT_EQ(e.str("bp"), "e");
            }
        }
    }
    EXPECT_TRUE(has_process_name);
    EXPECT_EQ(roots.size(), 16u);
    EXPECT_FALSE(phases.empty());

    // Every phase slice nests inside a root slice on the same thread.
    for (const JsonValue *p : phases) {
        double ts = p->num("ts"), dur = p->num("dur");
        double tid = p->num("tid");
        bool contained = false;
        for (const JsonValue *r : roots) {
            if (r->num("tid") != tid)
                continue;
            if (r->num("ts") <= ts &&
                ts + dur <= r->num("ts") + r->num("dur"))
                contained = true;
        }
        EXPECT_TRUE(contained)
            << "phase slice " << p->str("name") << " at ts=" << ts
            << " is not contained in any txn slice";
    }

    // Flow arrows pair up: one start and one end per flow id.
    EXPECT_FALSE(flow_s.empty());
    EXPECT_EQ(flow_s.size(), flow_f.size());
    for (const auto &[id, n] : flow_s) {
        EXPECT_EQ(n, 1);
        EXPECT_EQ(flow_f.count(id), 1u);
    }
}

TEST(TxnTrace, TracedExperimentSerialMatchesParallel)
{
    auto build = [] {
        Experiment ex("txn_identity", smallConfig(SyncPolicy::INV, 4));
        ex.quiet(true).table(false).writeReport(false).traceTxns(true);
        for (int k = 0; k < 4; ++k) {
            Config cfg = smallConfig(SyncPolicy::INV, 4);
            cfg.machine.seed = 1000 + static_cast<unsigned>(k);
            ex.point(csprintf("p%d", k), "", cfg, [](System &sys) {
                Addr a = sys.allocSync();
                for (int p = 0; p < 4; ++p)
                    sys.spawn(faaLoop(sys.proc(p), a, 3));
                RunResult rr = sys.run();
                EXPECT_TRUE(rr.completed);
                sys.reapTasks();
                PointResult res;
                res.metrics = collectRunMetrics(sys);
                return res;
            });
        }
        return ex;
    };

    Experiment serial = build();
    serial.run(1);
    Experiment parallel = build();
    parallel.run(4);

    EXPECT_EQ(serial.reportJson(), parallel.reportJson());
    ASSERT_EQ(serial.results().size(), parallel.results().size());
    for (std::size_t i = 0; i < serial.results().size(); ++i) {
        EXPECT_EQ(serial.results()[i].txn_events,
                  parallel.results()[i].txn_events)
            << "point " << i << " trace differs between schedules";
        EXPECT_GT(serial.results()[i].txn_events.size(), 2u);
    }
    // The attribution section of the report must be present and equal.
    EXPECT_NE(serial.reportJson().find("\"txn_phases\""),
              std::string::npos);
}

} // namespace
