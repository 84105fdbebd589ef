#include "exp/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "cpu/system.hh"
#include "sim/logging.hh"

namespace dsm {

namespace {

PointResult
executePoint(const Point &p)
{
    System sys(p.cfg);
    return p.fn(sys);
}

} // anonymous namespace

SweepRunner::SweepRunner(int jobs) : _jobs(resolveJobs(jobs))
{
}

int
SweepRunner::resolveJobs(int requested)
{
    if (requested > 0)
        return requested;
    const char *env = std::getenv("DSM_JOBS");
    if (env == nullptr || env[0] == '\0')
        return 1;
    return parsePositive<int>(env, "DSM_JOBS must be a positive integer");
}

std::vector<PointResult>
SweepRunner::run(const std::vector<Point> &points,
                 const std::function<void(std::size_t)> &on_done)
{
    std::vector<PointResult> results;
    runInto(points, results, on_done);
    return results;
}

void
SweepRunner::runInto(const std::vector<Point> &points,
                     std::vector<PointResult> &results,
                     const std::function<void(std::size_t)> &on_done)
{
    results.clear();
    results.resize(points.size());
    std::size_t n = points.size();
    std::size_t workers =
        std::min(static_cast<std::size_t>(_jobs), n);

    if (workers <= 1) {
        // Reference serial path: no threads, declaration order.
        for (std::size_t i = 0; i < n; ++i) {
            results[i] = executePoint(points[i]);
            if (on_done)
                on_done(i);
        }
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex done_mutex;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            for (;;) {
                std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                PointResult r = executePoint(points[i]);
                std::lock_guard<std::mutex> lock(done_mutex);
                results[i] = std::move(r);
                if (on_done)
                    on_done(i);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
}

int
parseJobsFlag(int argc, char **argv)
{
    auto parse = [](const char *s) {
        return parsePositive<int>(s, "--jobs expects a positive integer");
    };
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strncmp(a, "--jobs=", 7) == 0)
            return parse(a + 7);
        if (std::strcmp(a, "--jobs") == 0 || std::strcmp(a, "-j") == 0) {
            if (i + 1 >= argc)
                dsm_fatal("%s requires a value", a);
            return parse(argv[i + 1]);
        }
    }
    return 0;
}

std::uint64_t
parseSeedFlag(int argc, char **argv)
{
    auto parse = [](const char *s) {
        return parsePositive<std::uint64_t>(
            s, "--seed expects a positive integer");
    };
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strncmp(a, "--seed=", 7) == 0)
            return parse(a + 7);
        if (std::strcmp(a, "--seed") == 0) {
            if (i + 1 >= argc)
                dsm_fatal("--seed requires a value");
            return parse(argv[i + 1]);
        }
    }
    return 0;
}

std::uint64_t
seedFromEnv()
{
    const char *s = std::getenv("DSM_SEED");
    if (s == nullptr || *s == '\0')
        return 0;
    return parsePositive<std::uint64_t>(
        s, "DSM_SEED must be a positive integer");
}

} // namespace dsm
