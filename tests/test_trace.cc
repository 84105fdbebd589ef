/**
 * @file
 * Tests for the protocol event tracer: ring-buffer bounds, category
 * filtering, deterministic capture across identical seeded runs, and
 * well-formed Chrome trace-event JSON from a contended run.
 */

#include <map>
#include <set>

#include "helpers.hh"
#include "trace/trace.hh"
#include "workloads/counter_apps.hh"

namespace {

using namespace dsmtest;

TraceEvent
mkEvent(Tick tick, TraceCat cat, NodeId node = 0, Addr addr = 0)
{
    TraceEvent ev;
    ev.tick = tick;
    ev.cat = cat;
    ev.node = static_cast<std::int16_t>(node);
    ev.addr = addr;
    return ev;
}

TEST(TracerUnit, RingOverwritesOldestAndCountsDrops)
{
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.capacity = 8;
    Tracer tr;
    tr.configure(cfg);
    ASSERT_EQ(tr.capacity(), 8u);
    ASSERT_TRUE(tr.enabled());

    for (Tick t = 0; t < 20; ++t)
        tr.record(mkEvent(t, TraceCat::NACK));

    EXPECT_EQ(tr.size(), 8u);
    EXPECT_EQ(tr.totalRecorded(), 20u);
    EXPECT_EQ(tr.dropped(), 12u);

    // Oldest records were overwritten; the survivors come back oldest
    // first.
    std::vector<TraceEvent> evs = tr.events();
    ASSERT_EQ(evs.size(), 8u);
    for (std::size_t i = 0; i < evs.size(); ++i)
        EXPECT_EQ(evs[i].tick, 12 + i);

    tr.clear();
    EXPECT_EQ(tr.size(), 0u);
    EXPECT_EQ(tr.totalRecorded(), 0u);
    EXPECT_EQ(tr.capacity(), 8u);
}

TEST(TracerUnit, CategoryMaskFilters)
{
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.categories = traceBit(TraceCat::NACK) |
                     traceBit(TraceCat::DIR_STATE);
    cfg.capacity = 16;
    Tracer tr;
    tr.configure(cfg);

    EXPECT_TRUE(tr.on(TraceCat::NACK));
    EXPECT_TRUE(tr.on(TraceCat::DIR_STATE));
    EXPECT_FALSE(tr.on(TraceCat::MSG_SEND));
    EXPECT_FALSE(tr.on(TraceCat::ATOMIC_START));

    // Instrumentation sites are expected to guard with on(); the test
    // mimics that contract.
    for (TraceCat cat : {TraceCat::NACK, TraceCat::MSG_SEND,
                         TraceCat::DIR_STATE, TraceCat::RETRY}) {
        if (tr.on(cat))
            tr.record(mkEvent(1, cat));
    }
    std::vector<TraceEvent> evs = tr.events();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].cat, TraceCat::NACK);
    EXPECT_EQ(evs[1].cat, TraceCat::DIR_STATE);
}

TEST(TracerUnit, DisabledConfigMeansMaskZero)
{
    Tracer tr;
    tr.configure(TraceConfig{}); // default: enabled = false
    EXPECT_FALSE(tr.enabled());
    for (unsigned c = 0; c < NUM_TRACE_CATEGORIES; ++c)
        EXPECT_FALSE(tr.on(static_cast<TraceCat>(c)));
}

TEST(TracerUnit, SetMaskProvisionsRingLazily)
{
    Tracer tr;
    EXPECT_EQ(tr.capacity(), 0u);
    tr.setMask(TRACE_ALL);
    EXPECT_TRUE(tr.enabled());
    EXPECT_GT(tr.capacity(), 0u);
    tr.record(mkEvent(7, TraceCat::RESV_SET));
    EXPECT_EQ(tr.size(), 1u);
}

TEST(TracerUnit, SetMaskAllocatesTheConfiguredRing)
{
    // Configured disabled: no storage yet, but the capacity is kept for
    // when setMask() turns tracing on, instead of the default ring.
    TraceConfig cfg;
    cfg.capacity = 16;
    Tracer tr;
    tr.configure(cfg);
    EXPECT_FALSE(tr.enabled());
    EXPECT_EQ(tr.allocated(), 0u);
    EXPECT_EQ(tr.capacity(), 16u);

    tr.setMask(TRACE_ALL);
    EXPECT_EQ(tr.allocated(), 16u);
    for (Tick t = 0; t < 20; ++t)
        tr.record(mkEvent(t, TraceCat::NACK));
    EXPECT_EQ(tr.size(), 16u);
    EXPECT_EQ(tr.dropped(), 4u);
    EXPECT_EQ(tr.events().front().tick, 4u);
}

/** A short contended LL/SC counter run with tracing fully enabled. */
Config
tracedConfig()
{
    Config cfg = smallConfig(SyncPolicy::INV, 4);
    cfg.trace.enabled = true;
    cfg.trace.categories = TRACE_ALL;
    cfg.trace.capacity = 1u << 16;
    return cfg;
}

CounterAppResult
runTracedCounter(System &sys)
{
    CounterAppConfig app;
    app.kind = CounterKind::LOCK_FREE;
    app.prim = Primitive::LLSC;
    app.contention = 4;
    app.phases = 12;
    CounterAppResult r = runCounterApp(sys, app);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.correct);
    return r;
}

TEST(TraceSystem, DisabledTracingRecordsNothing)
{
    System sys(smallConfig(SyncPolicy::INV, 4));
    runTracedCounter(sys);
    EXPECT_FALSE(sys.tracer().enabled());
    EXPECT_EQ(sys.tracer().totalRecorded(), 0u);
}

TEST(TraceSystem, TracingOffHoldsNoRing)
{
    System off(smallConfig(SyncPolicy::INV, 4));
    EXPECT_EQ(off.tracer().allocated(), 0u);
    System on(tracedConfig());
    EXPECT_EQ(on.tracer().allocated(), on.tracer().capacity());
}

TEST(TraceSystem, DeterministicOrderAcrossIdenticalRuns)
{
    std::vector<TraceEvent> first;
    for (int run = 0; run < 2; ++run) {
        System sys(tracedConfig());
        runTracedCounter(sys);
        std::vector<TraceEvent> evs = sys.tracer().events();
        ASSERT_GT(evs.size(), 0u);
        ASSERT_EQ(sys.tracer().dropped(), 0u)
            << "ring too small for a lossless comparison";
        if (run == 0) {
            first = evs;
            continue;
        }
        ASSERT_EQ(evs.size(), first.size());
        for (std::size_t i = 0; i < evs.size(); ++i) {
            EXPECT_EQ(evs[i].tick, first[i].tick) << "record " << i;
            EXPECT_EQ(evs[i].cat, first[i].cat) << "record " << i;
            EXPECT_EQ(evs[i].node, first[i].node) << "record " << i;
            EXPECT_EQ(evs[i].addr, first[i].addr) << "record " << i;
            EXPECT_EQ(evs[i].op, first[i].op) << "record " << i;
        }
    }
}

TEST(TraceSystem, CapturesProtocolActivity)
{
    System sys(tracedConfig());
    runTracedCounter(sys);

    std::map<TraceCat, int> counts;
    for (const TraceEvent &ev : sys.tracer().events())
        ++counts[ev.cat];

    EXPECT_GT(counts[TraceCat::MSG_SEND], 0);
    EXPECT_GT(counts[TraceCat::MSG_RECV], 0);
    EXPECT_GT(counts[TraceCat::DIR_STATE], 0);
    EXPECT_GT(counts[TraceCat::ATOMIC_START], 0);
    EXPECT_GT(counts[TraceCat::ATOMIC_COMPLETE], 0);
    EXPECT_GT(counts[TraceCat::RESV_SET], 0);
    // Four processors hammering one LL/SC counter must fail some SCs
    // or get NACKed at the home.
    EXPECT_GT(counts[TraceCat::NACK] + counts[TraceCat::RETRY], 0);

    // Ticks never decrease: the ring preserves simulation order.
    std::vector<TraceEvent> evs = sys.tracer().events();
    for (std::size_t i = 1; i < evs.size(); ++i)
        ASSERT_LE(evs[i - 1].tick, evs[i].tick);

    std::string text = sys.tracer().exportText();
    EXPECT_NE(text.find("dir_state"), std::string::npos);
    EXPECT_NE(text.find("msg_send"), std::string::npos);
}

TEST(TraceSystem, ChromeJsonIsWellFormed)
{
    System sys(tracedConfig());
    runTracedCounter(sys);
    ASSERT_EQ(sys.tracer().dropped(), 0u);

    JsonValue root;
    ASSERT_TRUE(parseJsonOrFail(sys.tracer().exportChromeJson(), &root));
    ASSERT_TRUE(root.isObject());
    EXPECT_EQ(root.str("displayTimeUnit"), "ns");

    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_GT(events->array.size(), 0u);

    bool saw_thread_name = false;
    bool saw_dir_transition = false;
    bool saw_nack_or_retry = false;
    std::set<double> flow_starts, flow_ends;
    std::map<double, int> open_slices; // tid -> B minus E
    for (const JsonValue &ev : events->array) {
        ASSERT_TRUE(ev.isObject());
        std::string ph = ev.str("ph");
        ASSERT_FALSE(ph.empty());
        ASSERT_TRUE(ev.has("pid"));
        ASSERT_TRUE(ev.has("tid"));
        if (ph == "M") {
            saw_thread_name |= ev.str("name") == "thread_name";
            continue;
        }
        ASSERT_TRUE(ev.has("ts"));
        std::string cat = ev.str("cat");
        saw_dir_transition |= cat == "dir_state";
        saw_nack_or_retry |= cat == "nack" || cat == "retry";
        if (ph == "s")
            flow_starts.insert(ev.num("id"));
        if (ph == "f")
            flow_ends.insert(ev.num("id"));
        if (ph == "B")
            ++open_slices[ev.num("tid")];
        if (ph == "E")
            --open_slices[ev.num("tid")];
    }

    EXPECT_TRUE(saw_thread_name);
    EXPECT_TRUE(saw_dir_transition);
    EXPECT_TRUE(saw_nack_or_retry);

    // Flow arrows: every finish refers to an emitted start (the ring
    // did not wrap, so no send was lost).
    EXPECT_GT(flow_starts.size(), 0u);
    EXPECT_GT(flow_ends.size(), 0u);
    for (double id : flow_ends)
        EXPECT_TRUE(flow_starts.count(id)) << "dangling flow " << id;

    // Duration slices: the run quiesced, so every B has a matching E
    // on its track.
    for (const auto &[tid, open] : open_slices)
        EXPECT_EQ(open, 0) << "unbalanced B/E on tid " << tid;
}

} // namespace
