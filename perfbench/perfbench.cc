/**
 * @file
 * Host-performance benchmark program for the simulator.
 *
 * Runs one named workload for a fixed host-time budget and prints one
 * JSON line of raw measurements on stdout: set-up samples, per-pass run
 * times, the per-layer work counters of one pass, span self times from
 * traced passes, unit costs of single layers, peak RSS, and the
 * exactness digest. perfbench/run.py turns them into the benchmark's
 * metrics. Progress goes to stderr.
 *
 * Every layer is measured from outside, through public APIs only: the
 * program times its calls into System construction, the workload run,
 * the checkers and stats collection, and reads each layer's public
 * counters after the run.
 *
 * Usage: dsm_perfbench --workload tc_spin|counter_sweep|serve_chaos
 *                      --seed N --seconds S --trace 0|1
 *                      [--spans PATH]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cpu/system.hh"
#include "exp/experiment.hh"
#include "proto/checker.hh"
#include "sim/json.hh"
#include "stats/bench_report.hh"
#include "workloads/counter_apps.hh"
#include "workloads/openloop.hh"
#include "workloads/transitive_closure.hh"

using namespace dsm;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** SplitMix64: derive independent input seeds from the workload seed. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z == 0 ? 1 : z;
}

/** The layer boundaries runPass() records spans at. */
constexpr const char *SPAN_NAMES[] = {
    "exp.point", "cpu.system_ctor", "workloads.run",
    "proto.check", "stats.collect", "cpu.system_dtor",
};

/** FNV-1a 64, for the per-point exactness digest. */
std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * In-memory span log. A span records a name, start and end (seconds
 * since the log was created), its parent and its pass; nothing is
 * recorded while the log is off, so untraced passes pay one branch per
 * layer boundary.
 */
class SpanLog
{
  public:
    /** RAII guard around one call into a layer. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name)
            : _log(log), _id(log.open(name))
        {
        }
        ~Scope() { _log.close(_id); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &_log;
        int _id;
    };

    bool on = false;
    int pass = 0;

    /** Total self time of the spans named @p name in pass @p p. */
    double
    selfTime(const char *name, int p) const
    {
        double total = 0.0;
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            if (s.pass != p || std::strcmp(s.name, name) != 0)
                continue;
            total += s.t1 - s.t0;
            // Children follow their parent and start before it ends.
            for (std::size_t j = i + 1;
                 j < _spans.size() && _spans[j].t0 <= s.t1; ++j)
                if (_spans[j].parent == static_cast<int>(i))
                    total -= _spans[j].t1 - _spans[j].t0;
        }
        return total;
    }

    /** Durations (ms) of every span named @p name. */
    std::vector<double>
    durationsMs(const char *name) const
    {
        std::vector<double> out;
        for (const Span &s : _spans)
            if (std::strcmp(s.name, name) == 0)
                out.push_back((s.t1 - s.t0) * 1e3);
        return out;
    }

    /** Write every span as JSON (microseconds since the log started). */
    bool
    write(const std::string &path) const
    {
        JsonWriter w;
        w.beginObject();
        w.kv("unit", "us");
        w.key("spans");
        w.beginArray();
        for (const Span &s : _spans) {
            w.beginObject();
            w.kv("name", s.name);
            w.kv("pass", s.pass);
            w.kv("parent", s.parent);
            w.kv("start", s.t0 * 1e6);
            w.kv("end", s.t1 * 1e6);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::ofstream out(path, std::ios::binary);
        out << w.str() << "\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        const char *name;
        double t0;
        double t1;
        int parent;
        int pass;
    };

    int
    open(const char *name)
    {
        if (!on)
            return -1;
        int parent = _stack.empty() ? -1 : _stack.back();
        _spans.push_back(Span{name, secondsSince(_t0), 0.0, parent, pass});
        _stack.push_back(static_cast<int>(_spans.size() - 1));
        return _stack.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        _spans[static_cast<std::size_t>(id)].t1 = secondsSince(_t0);
        _stack.pop_back();
    }

    Clock::time_point _t0 = Clock::now();
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/**
 * Per-layer work counters, summed over the points of one pass, in
 * report order. All are deterministic functions of the inputs.
 */
class Work
{
  public:
    /** Fold in one finished point's counters. */
    void
    add(System &sys, const RunMetrics &m)
    {
        SysStats agg = sys.stats();
        count("events", sys.eq().eventsExecuted());
        count("ops", m.ops);
        count("sim_cycles", m.ticks);
        count("msgs", m.messages);
        count("hops", sys.mesh().stats().hop_sum);
        count("nacks", m.nacks);
        count("retries", m.retries);
        count("invalidations", m.invalidations);
        count("updates", m.updates);
        count("sc_ok", agg.sc_successes);
        count("sc_fail", agg.sc_failures);
        count("cas_ok", agg.cas_successes);
        count("cas_fail", agg.cas_failures);
        std::uint64_t hits = 0, misses = 0, accesses = 0, queue = 0,
                      busy = 0, transitions = 0;
        for (NodeId n = 0; n < sys.numProcs(); ++n) {
            hits += sys.ctrl(n).cache().stats().hits;
            misses += sys.ctrl(n).cache().stats().misses;
            accesses += sys.mem(n).accesses();
            queue += sys.mem(n).queueCycles();
            busy += sys.mem(n).busyCycles();
            transitions += sys.dir(n).transitions();
        }
        count("cache_hits", hits);
        count("cache_misses", misses);
        count("mem_accesses", accesses);
        count("mem_queue_cycles", queue);
        count("mem_busy_cycles", busy);
        count("dir_transitions", transitions);
        count("mem_node_cycles",
              m.ticks * static_cast<std::uint64_t>(sys.numProcs()));
        const ServeStats &ss = sys.serveStats();
        count("serve_served", ss.served);
        count("serve_slots", ss.slots);
        count("serve_coalesced", ss.coalesced);
        count("serve_throttle_cycles", ss.throttle_cycles);
        const OpenLoopStats &os = sys.admissionState().stats();
        count("offered", os.offered);
        count("rejected", os.rejected);
        count("completed", os.completed);
        count("slo_violations", os.slo_violations);
        count("admission_wait_sum", os.admission_wait.sum);
        count("admission_wait_count", os.admission_wait.count);
        _sojourn.merge(os.sojourn);
        const FaultPlan::Counters &fc = sys.faultPlan().counters();
        count("fault_injected",
              fc.jitter_applied + fc.resv_drops + fc.forced_evictions +
                  fc.nacks_injected + fc.msg_drops + fc.flaky_drops +
                  fc.msg_reorders + fc.msg_dups + fc.msg_corruptions);
        const Recovery::Counters &rc = sys.recoveryState().counters();
        count("drops", rc.drops);
        count("retransmits", rc.retransmits);
        count("dups_absorbed", rc.dups_absorbed);
    }

    void
    writeJson(JsonWriter &w) const
    {
        w.beginObject();
        for (const auto &[k, v] : _counts)
            w.kv(k, v);
        w.kv("sojourn_p99", static_cast<std::uint64_t>(_sojourn.p99()));
        w.endObject();
    }

  private:
    void
    count(const char *name, std::uint64_t v)
    {
        for (auto &kv : _counts) {
            if (kv.first == name) {
                kv.second += v;
                return;
            }
        }
        _counts.emplace_back(name, v);
    }

    std::vector<std::pair<std::string, std::uint64_t>> _counts;
    /** Open-loop sojourn distribution merged over the points. */
    LatencyStat _sojourn;
};

/** Result of one point: its digest input and any failed checks. */
struct PointOutcome
{
    std::string result;
    std::vector<std::string> problems;
};

/** One simulated point: a machine config and the workload run on it. */
struct Point
{
    std::string label;
    Config cfg;
    std::function<PointOutcome(System &)> run;
};

/** A workload: its points, built once from the workload seed. */
using Workload = std::vector<Point>;

/**
 * The checkers run on every point after its workload: the coherence
 * invariants always, and the fault and serving ledgers where those
 * layers are on. Each violation fails the point.
 */
void
checkPoint(System &sys, PointOutcome &o)
{
    for (std::string &v : checkCoherence(sys))
        o.problems.push_back("coherence: " + v);
    if (sys.cfg().faults.enabled)
        for (std::string &v : checkFaultAccounting(sys))
            o.problems.push_back("fault ledger: " + v);
    if (sys.cfg().serve.enabled) {
        const ServeStats &ss = sys.serveStats();
        if (ss.served != ss.slots + ss.coalesced ||
            ss.served != ss.hi_served + ss.lo_served)
            o.problems.push_back("serve ledger does not close");
    }
}

/**
 * tc_spin: the Figure 1 Transitive Closure at p=64, n=48, 8% edges,
 * INV FAP. Spin-dominated: almost every event is a local cache hit.
 */
Workload
tcSpin(std::uint64_t seed)
{
    Point pt;
    pt.label = "TC INV FAP";
    pt.cfg.machine.seed = deriveSeed(seed, 0);
    pt.cfg.sync.policy = SyncPolicy::INV;
    TcConfig app;
    app.size = 48;
    app.edge_pct = 8;
    app.prim = Primitive::FAP;
    app.seed = deriveSeed(seed, 1);
    pt.run = [app](System &sys) {
        PointOutcome o;
        TcResult r = runTransitiveClosure(sys, app);
        if (!r.completed)
            o.problems.push_back("transitive closure did not complete");
        else if (!r.correct)
            o.problems.push_back("transitive closure is wrong");
        o.result = "elapsed=" + std::to_string(r.elapsed) +
                   " fetches=" + std::to_string(r.counter_fetches) +
                   " correct=" + std::to_string(r.correct);
        return o;
    };
    Workload w;
    w.push_back(std::move(pt));
    return w;
}

/**
 * counter_sweep: the Figure 3 lock-free counter over the full
 * figureMatrix() at c in {2,4,8,16,64}, p=64. Miss- and message-heavy,
 * 105 fresh Systems per pass.
 */
Workload
counterSweep(std::uint64_t seed)
{
    Workload w;
    for (const ImplCase &impl : figureMatrix()) {
        for (int c : {2, 4, 8, 16, 64}) {
            Point pt;
            pt.label = impl.label + " c=" + std::to_string(c);
            pt.cfg.machine.seed = deriveSeed(seed, 0);
            pt.cfg.sync = impl.sync;
            CounterAppConfig app;
            app.kind = CounterKind::LOCK_FREE;
            app.prim = impl.prim;
            app.contention = c;
            // The phase count of bench/fig_counter_common.hh.
            app.phases = std::max(6, 256 / c);
            pt.run = [app](System &sys) {
                PointOutcome o;
                CounterAppResult r = runCounterApp(sys, app);
                if (!r.completed)
                    o.problems.push_back("counter run did not complete");
                else if (!r.correct)
                    o.problems.push_back("counter value is wrong");
                o.result = "updates=" + std::to_string(r.updates) +
                           " elapsed=" + std::to_string(r.elapsed) +
                           " failed_attempts=" +
                           std::to_string(r.failed_attempts) +
                           " correct=" + std::to_string(r.correct);
                return o;
            };
            w.push_back(std::move(pt));
        }
    }
    return w;
}

/**
 * serve_chaos: open-loop Poisson arrivals at p=16 over the 9-impl
 * applicationMatrix(), serving layer on, chaos "moderate" faults, at
 * one rate below and one past saturation.
 */
Workload
serveChaos(std::uint64_t seed)
{
    // The "moderate" level of bench/chaos_sweep.cc.
    FaultConfig faults;
    std::string err = faults.parse(
        "jitter_prob=0.002,jitter_max=16,drop_prob=0.0005,"
        "reorder_prob=0.001,reorder_max=32,dup_prob=0.001,"
        "dup_delay=64,corrupt_prob=0.0005,req_timeout=2000");
    if (!err.empty())
        dsm_fatal("fault spec: %s", err.c_str());
    faults.seed = deriveSeed(seed, 2);
    ServeConfig serve;
    err = serve.parse("1");
    if (!err.empty())
        dsm_fatal("serve spec: %s", err.c_str());

    Workload w;
    for (const ImplCase &impl : applicationMatrix()) {
        for (double rate : {1e-3, 3e-3}) {
            Point pt;
            pt.label = impl.label + " rate=" + std::to_string(rate);
            Config &cfg = pt.cfg;
            cfg.machine.num_procs = 16;
            cfg.machine.mesh_x = 4;
            cfg.machine.mesh_y = 4;
            // The arrival streams derive from the machine seed.
            cfg.machine.seed = deriveSeed(seed, 0);
            cfg.sync = impl.sync;
            cfg.openloop.enabled = true;
            cfg.openloop.rate_ppc = rate;
            cfg.openloop.slo_cycles = 2000;
            cfg.openloop.ops_per_proc = 2048;
            cfg.serve = serve;
            cfg.faults = faults;
            // The campaign watchdog bounds of bench/chaos_sweep.cc: a
            // trip means livelock.
            cfg.watchdog.enabled = true;
            cfg.watchdog.max_retries = 100000;
            cfg.watchdog.max_txn_age = 5'000'000;
            cfg.watchdog.scan_period = 50'000;
            Primitive prim = impl.prim;
            pt.run = [prim](System &sys) {
                PointOutcome o;
                OpenLoopResult r = runOpenLoop(sys, prim);
                if (!r.completed_run) {
                    o.problems.push_back(
                        sys.watchdogState().tripped()
                            ? "livelock: " + sys.watchdogState().diagnosis()
                            : std::string("open-loop run did not "
                                          "complete"));
                } else if (!r.correct) {
                    o.problems.push_back("counter != completed updates");
                }
                o.result = "offered=" + std::to_string(r.offered) +
                           " admitted=" + std::to_string(r.admitted) +
                           " rejected=" + std::to_string(r.rejected) +
                           " completed=" + std::to_string(r.completed) +
                           " slo=" + std::to_string(r.slo_violations) +
                           " elapsed=" + std::to_string(r.elapsed) +
                           " p99=" + std::to_string(r.sojourn_p99) +
                           " correct=" + std::to_string(r.correct);
                return o;
            };
            w.push_back(std::move(pt));
        }
    }
    return w;
}

/** Timings and outcome of one pass over every point of a workload. */
struct PassResult
{
    bool traced = false;
    /**
     * Host seconds in System construction; printed as progress only,
     * the set-up metric comes from setupOnly() samples.
     */
    double setup_s = 0.0;
    /** Host seconds of the pass outside System construction. */
    double wall_s = 0.0;
    std::uint64_t digest = fnv1a("");
    std::vector<std::uint64_t> point_digests;
    std::vector<std::string> problems;
    std::size_t failed_points = 0;
    Work work;
};

/**
 * Run every point once: construct a fresh System, run the workload,
 * check it, collect its stats and per-layer counters, and digest them.
 */
PassResult
runPass(const Workload &w, SpanLog &spans)
{
    PassResult pr;
    pr.traced = spans.on;
    Clock::time_point t0 = Clock::now();
    for (const Point &pt : w) {
        SpanLog::Scope point_span(spans, "exp.point");
        std::unique_ptr<System> sys;
        {
            SpanLog::Scope s(spans, "cpu.system_ctor");
            Clock::time_point c0 = Clock::now();
            sys = std::make_unique<System>(pt.cfg);
            pr.setup_s += secondsSince(c0);
        }
        PointOutcome o;
        {
            SpanLog::Scope s(spans, "workloads.run");
            o = pt.run(*sys);
        }
        {
            SpanLog::Scope s(spans, "proto.check");
            checkPoint(*sys, o);
        }
        std::string stats;
        {
            SpanLog::Scope s(spans, "stats.collect");
            RunMetrics m = collectRunMetrics(*sys);
            stats = sys->statsJson();
            o.result += " events=" +
                        std::to_string(sys->eq().eventsExecuted()) +
                        " ops=" + std::to_string(m.ops) +
                        " ticks=" + std::to_string(m.ticks);
            pr.work.add(*sys, m);
        }
        std::uint64_t d = fnv1a(o.result, fnv1a(stats));
        pr.point_digests.push_back(d);
        pr.digest = fnv1a(std::to_string(d), pr.digest);
        if (!o.problems.empty()) {
            ++pr.failed_points;
            for (const std::string &p : o.problems)
                pr.problems.push_back(pt.label + ": " + p);
        }
        SpanLog::Scope s(spans, "cpu.system_dtor");
        sys.reset();
    }
    pr.wall_s = secondsSince(t0) - pr.setup_s;
    return pr;
}

/** Set-up only: construct (and drop) every point's System. */
double
setupOnly(const Workload &w)
{
    double total = 0.0;
    for (const Point &pt : w) {
        Clock::time_point c0 = Clock::now();
        auto sys = std::make_unique<System>(pt.cfg);
        total += secondsSince(c0);
    }
    return total;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Repeat @p batch (which returns the items it processed) for about
 * @p budget_s seconds in rounds; return the median ns per item.
 */
double
unitCostNs(double budget_s, const std::function<std::uint64_t()> &batch)
{
    std::vector<double> rounds;
    Clock::time_point t0 = Clock::now();
    while (rounds.size() < 5 || secondsSince(t0) < budget_s) {
        Clock::time_point r0 = Clock::now();
        std::uint64_t items = 0;
        while (secondsSince(r0) < budget_s / 10)
            items += batch();
        rounds.push_back(secondsSince(r0) * 1e9 /
                         static_cast<double>(items));
    }
    return median(rounds);
}

/** EventQueue::schedule + run, the BM_EventQueueSchedule loop shape. */
std::uint64_t
eventQueueBatch()
{
    EventQueue eq;
    int sink = 0;
    for (int i = 0; i < 1024; ++i)
        eq.schedule(static_cast<Tick>(i % 64), [&sink] { ++sink; });
    eq.run();
    if (sink != 1024)
        dsm_fatal("event queue lost events");
    return 1024;
}

/** Mesh::send -> delivery, the BM_MeshMessageThroughput loop shape. */
std::uint64_t
meshBatch()
{
    EventQueue eq;
    MachineConfig mc;
    Mesh mesh(eq, mc);
    std::uint64_t delivered = 0;
    for (NodeId n = 0; n < mc.num_procs; ++n)
        mesh.setHandler(n, [&delivered](const Msg &) { ++delivered; });
    for (int i = 0; i < 2048; ++i) {
        Msg m;
        m.type = MsgType::GET_S;
        m.src = i % 64;
        m.dst = (i * 7) % 64;
        mesh.send(m);
    }
    eq.run();
    if (delivered != 2048)
        dsm_fatal("mesh lost messages");
    return 2048;
}

void
writeList(JsonWriter &w, const char *key, const std::vector<double> &v)
{
    w.key(key);
    w.beginArray();
    for (double x : v)
        w.value(x);
    w.endArray();
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "dsm_perfbench: %s\nusage: dsm_perfbench --workload "
                 "tc_spin|counter_sweep|serve_chaos --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spans_path;
    std::uint64_t seed = 0;
    double seconds = -1;
    int trace = -1;
    if (argc % 2 == 0)
        usage("arguments come in --key value pairs");
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        const char *v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            workload = v;
        } else if (k == "--seed") {
            seed = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0')
                usage("--seed expects a non-negative integer");
        } else if (k == "--seconds") {
            seconds = std::strtod(v, &end);
            if (end == v || *end != '\0' || !(seconds > 0))
                usage("--seconds expects a positive number");
        } else if (k == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace expects 0 or 1");
            trace = v[0] - '0';
        } else if (k == "--spans") {
            spans_path = v;
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (seconds < 0 || trace < 0)
        usage("--seconds and --trace are required");

    Workload w;
    if (workload == "tc_spin")
        w = tcSpin(seed);
    else if (workload == "counter_sweep")
        w = counterSweep(seed);
    else if (workload == "serve_chaos")
        w = serveChaos(seed);
    else
        usage("unknown workload");

    JsonWriter out;
    out.beginObject();

    // Unit costs of single layers (traced runs only), through the same
    // loop shapes as bench/simcore_microbench.cc, and construction of
    // this workload's System alone.
    if (trace) {
        out.kv("sim.event_ns", unitCostNs(0.3, eventQueueBatch));
        out.kv("net.send_ns", unitCostNs(0.3, meshBatch));
        double ctor_ns = unitCostNs(0.3, [&w] {
            auto sys = std::make_unique<System>(w.front().cfg);
            return std::uint64_t{1};
        });
        out.kv("cpu.system_ctor_ms", ctor_ns * 1e-6);
    }

    // Measured passes: until the budget would be overrun, at least
    // three. Traced runs alternate untraced and traced passes so the
    // tracing overhead is measured under the same host conditions.
    // Before each pass, set-up alone is sampled for a short while, so
    // the set-up samples are spread over the whole run like the passes.
    constexpr double SETUP_SAMPLING_S = 0.15;
    std::vector<double> setup_samples;
    auto sampleSetup = [&w, &setup_samples] {
        Clock::time_point t0 = Clock::now();
        do
            setup_samples.push_back(setupOnly(w));
        while (secondsSince(t0) < SETUP_SAMPLING_S);
    };
    SpanLog spans;
    std::vector<PassResult> passes;
    rusage first_pass_usage{};
    Clock::time_point measure0 = Clock::now();
    double est = 0.0;
    while (passes.size() < 3 || secondsSince(measure0) + est <= seconds) {
        sampleSetup();
        spans.on = trace && passes.size() % 2 == 1;
        spans.pass = static_cast<int>(passes.size());
        passes.push_back(runPass(w, spans));
        spans.on = false;
        // Peak memory of set-up plus one pass over every point: a fixed
        // amount of work, so allocator drift over a long run does not
        // make it depend on host speed.
        if (passes.size() == 1)
            getrusage(RUSAGE_SELF, &first_pass_usage);
        std::vector<double> pass_s;
        for (const PassResult &p : passes)
            pass_s.push_back(p.setup_s + p.wall_s + SETUP_SAMPLING_S);
        est = median(pass_s);
        std::fprintf(stderr, "%s: pass %zu: %.3f s setup, %.3f s run\n",
                     workload.c_str(), passes.size(),
                     passes.back().setup_s, passes.back().wall_s);
    }

    while (setup_samples.size() < 9)
        sampleSetup();

    // Exactness: every pass must reproduce the first pass point by
    // point; a mismatch fails the point.
    const PassResult &ref = passes.front();
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> problems;
    std::vector<double> wall, traced_wall;
    std::vector<std::vector<double>> self_s(std::size(SPAN_NAMES));
    for (std::size_t k = 0; k < passes.size(); ++k) {
        const PassResult &p = passes[k];
        attempted += p.point_digests.size();
        failed += p.failed_points;
        problems.insert(problems.end(), p.problems.begin(),
                        p.problems.end());
        for (std::size_t i = 0; i < p.point_digests.size(); ++i) {
            if (p.point_digests[i] != ref.point_digests[i]) {
                ++failed;
                problems.push_back(w[i].label +
                                   ": digest differs between passes");
            }
        }
        if (p.traced) {
            int pass = static_cast<int>(k);
            traced_wall.push_back(p.wall_s);
            for (std::size_t n = 0; n < self_s.size(); ++n)
                self_s[n].push_back(spans.selfTime(SPAN_NAMES[n], pass));
        } else {
            wall.push_back(p.wall_s);
        }
    }

    writeList(out, "setup_s", setup_samples);
    writeList(out, "wall_s", wall);
    writeList(out, "traced_wall_s", traced_wall);
    // Self time of each span name, per traced pass.
    out.key("span_self_s");
    out.beginObject();
    for (std::size_t n = 0; n < self_s.size(); ++n)
        writeList(out, SPAN_NAMES[n], self_s[n]);
    out.endObject();
    writeList(out, "point_ms", spans.durationsMs("exp.point"));
    out.kv("peak_rss_mb",
           static_cast<double>(first_pass_usage.ru_maxrss) / 1024.0);
    out.kv("points_per_pass", static_cast<std::uint64_t>(w.size()));
    out.kv("passes", static_cast<std::uint64_t>(passes.size()));
    out.kv("attempted", attempted);
    out.kv("failed", failed);
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(ref.digest));
    out.kv("digest", digest);
    out.key("work");
    ref.work.writeJson(out);
    out.key("problems");
    out.beginArray();
    for (std::size_t i = 0; i < problems.size() && i < 20; ++i)
        out.value(problems[i]);
    out.endArray();
    out.endObject();

    if (trace && !spans_path.empty() && !spans.write(spans_path)) {
        std::fprintf(stderr, "dsm_perfbench: cannot write %s\n",
                     spans_path.c_str());
        return 1;
    }
    std::printf("%s\n", out.str().c_str());
    return 0;
}
