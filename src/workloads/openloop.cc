#include "workloads/openloop.hh"

#include <cmath>
#include <coroutine>
#include <vector>

#include "cpu/admission.hh"
#include "cpu/system.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sync/lockfree_counter.hh"

namespace dsm {

namespace {

/**
 * Portable natural log over (0, 1]: frexp decomposition plus the
 * atanh series for ln(m), using only IEEE +,-,*,/ so exponential gap
 * draws are bit-identical across libm implementations (glibc, musl,
 * macOS all round log() differently in the last ulp, which would break
 * the cross-host byte-identity of committed open-loop baselines).
 */
double
plog(double x)
{
    // 2^53 digits of ln 2; more than double precision.
    constexpr double LN2 = 0.69314718055994530941723212145818;
    int e = 0;
    double m = std::frexp(x, &e); // x = m * 2^e, m in [0.5, 1): exact
    // ln m = 2 atanh(t), t = (m-1)/(m+1) in (-1/3, 0]; |t|^43 < 4e-21
    // so 21 terms reach full double precision.
    double t = (m - 1.0) / (m + 1.0);
    double t2 = t * t;
    double term = t;
    double sum = 0.0;
    for (int k = 1; k <= 41; k += 2) {
        sum += term / k;
        term *= t2;
    }
    return 2.0 * sum + static_cast<double>(e) * LN2;
}

/** Exponential inter-arrival gap with the given mean, at least 1. */
Tick
expGap(Rng &rng, double mean)
{
    // 53 uniform bits mapped into (0, 1]; u = 1 gives gap >= 1.
    double u = (static_cast<double>(rng.next() >> 11) + 1.0) *
               (1.0 / 9007199254740992.0);
    double g = -plog(u) * mean;
    if (g < 1.0)
        return 1;
    return static_cast<Tick>(g);
}

/** Host-side state shared by the generators and server coroutines. */
struct OpenLoopState
{
    std::vector<Rng> rng;            ///< per-node arrival stream
    std::vector<int> remaining;      ///< arrivals left to generate
    std::vector<char> gen_done;      ///< node's generator finished
    /** Server coroutine waiting for work, or null. */
    std::vector<std::coroutine_handle<>> parked;
};

/** Resume node @p i's server at the current tick if it is parked. */
void
wakeServer(System &sys, OpenLoopState &st, std::size_t i)
{
    if (std::coroutine_handle<> h = st.parked[i]) {
        st.parked[i] = nullptr;
        sys.eq().scheduleIn(0, [h] { h.resume(); });
    }
}

/** Suspend the current coroutine until wakeServer() is called. */
struct Park
{
    std::coroutine_handle<> *slot;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept { *slot = h; }
    void await_resume() const noexcept {}
};

/**
 * One arrival event of node @p i: offer a burst to the admission
 * queue, wake the server, and reschedule until the node's share of
 * arrivals is generated.
 */
void
arrivalEvent(System &sys, OpenLoopState &st, std::size_t i)
{
    const OpenLoopConfig &cfg = sys.cfg().openloop;
    AdmissionQueues &adm = sys.admissionState();
    Rng &rng = st.rng[i];

    // Uniform batch in [1, 2*burst-1] has mean burst; the gap mean is
    // scaled by burst below, so the average rate stays rate_ppc.
    std::uint64_t batch =
        cfg.burst > 1
            ? rng.range(1, 2 * static_cast<std::uint64_t>(cfg.burst) - 1)
            : 1;
    if (batch > static_cast<std::uint64_t>(st.remaining[i]))
        batch = static_cast<std::uint64_t>(st.remaining[i]);
    for (std::uint64_t k = 0; k < batch; ++k)
        adm.offer(static_cast<NodeId>(i), sys.now());
    st.remaining[i] -= static_cast<int>(batch);

    if (st.remaining[i] > 0) {
        Tick gap =
            expGap(rng, static_cast<double>(cfg.burst) / cfg.rate_ppc);
        sys.eq().scheduleIn(gap,
                            [&sys, &st, i] { arrivalEvent(sys, st, i); });
    } else {
        st.gen_done[i] = 1;
    }
    // Wake even when everything was shed: a parked server must recheck
    // gen_done so it can retire once its generator finishes.
    wakeServer(sys, st, i);
}

/** The per-node server: drain the admission queue, one update per op. */
Task
serverThread(System &sys, Proc &p, OpenLoopState &st,
             LockFreeCounter &counter)
{
    AdmissionQueues &adm = sys.admissionState();
    NodeId id = p.id();
    std::size_t i = static_cast<std::size_t>(id);
    for (;;) {
        while (adm.empty(id)) {
            if (st.gen_done[i])
                co_return;
            co_await Park{&st.parked[i]};
        }
        Tick arrival = adm.pop(id, sys.now());
        // Attribute the queueing delay to the op's trace: the tracer
        // rebases the next transaction's issue tick to the arrival so
        // sojourn = admission wait (ADMIT phase) + service.
        if (sys.cfg().txn_trace.enabled)
            sys.txns().noteArrival(id, arrival);
        co_await counter.fetchInc(p);
        adm.complete(arrival, sys.now());
    }
}

} // namespace

OpenLoopResult
runOpenLoop(System &sys, Primitive prim)
{
    dsm_assert(sys.cfg().openloop.enabled,
               "runOpenLoop requires cfg.openloop.enabled");
    const OpenLoopConfig &cfg = sys.cfg().openloop;

    LockFreeCounter counter(sys, prim);

    int n = sys.numProcs();
    OpenLoopState st;
    st.remaining.assign(static_cast<std::size_t>(n), cfg.ops_per_proc);
    st.gen_done.assign(static_cast<std::size_t>(n), 0);
    st.parked.assign(static_cast<std::size_t>(n), nullptr);
    st.rng.reserve(static_cast<std::size_t>(n));
    std::uint64_t base = mixSeed(sys.cfg().machine.seed);
    for (int i = 0; i < n; ++i) {
        // Each node owns an independent stream; the second mix keeps
        // neighbouring nodes' xoshiro states uncorrelated.
        st.rng.emplace_back(mixSeed(
            base + SPLITMIX_GAMMA * static_cast<std::uint64_t>(i + 1)));
    }

    Tick t0 = sys.now();
    for (int i = 0; i < n; ++i) {
        sys.spawn(serverThread(sys, sys.proc(i), st, counter));
        std::size_t node = static_cast<std::size_t>(i);
        Tick gap = expGap(st.rng[node],
                          static_cast<double>(cfg.burst) / cfg.rate_ppc);
        sys.eq().scheduleIn(gap, [&sys, &st, node] {
            arrivalEvent(sys, st, node);
        });
    }
    RunResult rr = sys.run();

    const OpenLoopStats &os = sys.admissionState().stats();
    OpenLoopResult res;
    res.offered = os.offered;
    res.admitted = os.admitted;
    res.rejected = os.rejected;
    res.completed = os.completed;
    res.slo_violations = os.slo_violations;
    res.elapsed = sys.now() - t0;
    if (res.elapsed > 0)
        res.throughput = static_cast<double>(res.completed) /
                         static_cast<double>(res.elapsed);
    res.sojourn_mean = os.sojourn.mean();
    res.sojourn_p50 = os.sojourn.p50();
    res.sojourn_p99 = os.sojourn.p99();
    res.sojourn_p999 = os.sojourn.p999();
    res.sojourn_max = os.sojourn.max;
    res.admission_wait_mean = os.admission_wait.mean();
    if (cfg.slo_cycles != 0 && res.completed > 0)
        res.slo_frac = static_cast<double>(res.slo_violations) /
                       static_cast<double>(res.completed);
    res.correct = sys.debugRead(counter.addr()) == res.completed;
    res.completed_run = rr.completed;
    sys.reapTasks();
    return res;
}

} // namespace dsm
