#include "exp/campaign.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "cpu/system.hh"
#include "fault/watchdog.hh"
#include "proto/checker.hh"
#include "sim/logging.hh"

namespace dsm {

namespace {

/** Per Knob: the env var replacing its axis, and its levels' name. */
const char *const kEnvName[] = {"DSM_FAULTS", "DSM_OPENLOOP", "DSM_SERVE"};
const char *const kNoun[] = {"levels", "loads", "modes"};

const char *
envName(Knob knob)
{
    return kEnvName[static_cast<int>(knob)];
}

/** Set @p knob's section of @p cfg from @p spec. */
std::string
setKnob(Knob knob, const std::string &spec, Config &cfg)
{
    switch (knob) {
      case Knob::FAULTS: return cfg.faults.parse(spec);
      case Knob::OPENLOOP: return cfg.openloop.parse(spec);
      case Knob::SERVE: return cfg.serve.parse(spec);
    }
    return "";
}

Config
campaignConfig()
{
    Config cfg;
    cfg.machine.num_procs = 16;
    cfg.machine.mesh_x = 4;
    cfg.machine.mesh_y = 4;
    // Faults stretch transactions by recovery timeouts and skew, and the
    // serving layer parks them in backoff or throttle (excluded from the
    // age), so the bounds are generous: organic retry streaks stay in
    // the hundreds, and a trip means livelock, not slowness.
    cfg.watchdog.enabled = true;
    cfg.watchdog.max_retries = 100000;
    cfg.watchdog.max_txn_age = 5'000'000;
    cfg.watchdog.scan_period = 50'000;
    return cfg;
}

/** @p s with spaces, '+' and '/' replaced, for use in a file name. */
std::string
fileLabel(std::string s)
{
    std::replace_if(
        s.begin(), s.end(),
        [](char c) { return c == ' ' || c == '+' || c == '/'; }, '_');
    return s;
}

std::vector<std::string>
standardGates(System &sys, bool completed, bool correct)
{
    if (!completed) {
        const Watchdog &wd = sys.watchdogState();
        return {wd.tripped() ? wd.diagnosis()
                             : "run did not complete:\n" +
                                   Watchdog::blockedTxnDump(sys)};
    }
    std::vector<std::string> out;
    if (!correct)
        out.push_back("final counter value is wrong");
    for (const std::vector<std::string> &vs :
         {checkCoherence(sys), checkFaultAccounting(sys),
          checkServeAccounting(sys)})
        out.insert(out.end(), vs.begin(), vs.end());
    if (std::uint64_t n = sys.txns().phaseSumMismatches(); n != 0)
        out.push_back(csprintf("%llu transaction phase-sum mismatch(es)",
                               (unsigned long long)n));
    return out;
}

} // anonymous namespace

std::uint64_t
sumField(const Rows &rows, const std::string &field)
{
    std::uint64_t sum = 0;
    for (const JsonValue &row : rows)
        sum += static_cast<std::uint64_t>(row.num(field, 0.0));
    return sum;
}

Campaign::Campaign(std::string name, int argc, char **argv)
    : _name(std::move(name)), _argc(argc), _argv(argv),
      _ex(_name, campaignConfig()), _jobs(parseJobsFlag(argc, argv)),
      _seed(parseSeedFlag(argc, argv)), _impls(applicationMatrix())
{
    if (_seed == 0)
        _seed = seedFromEnv();
    if (_seed == 0)
        _seed = 1;
    // Seeds are set per point: consume the override so Experiment::run()
    // does not flatten them again.
    unsetenv("DSM_SEED");
}

Campaign &
Campaign::impls(std::vector<ImplCase> matrix)
{
    _impls = std::move(matrix);
    return *this;
}

Campaign &
Campaign::axis(Knob knob, Place place, std::vector<Level> levels)
{
    const char *env = std::getenv(envName(knob));
    bool custom = env != nullptr && env[0] != '\0';
    if (custom)
        levels = {{"custom", env}};
    for (const Level &lv : levels) {
        Config scratch;
        std::string err = setKnob(knob, lv.spec, scratch);
        if (!err.empty())
            dsm_fatal("%s level '%s': %s", envName(knob), lv.label.c_str(),
                      err.c_str());
    }
    _axes.push_back(Axis{knob, place, std::move(levels), custom});
    return *this;
}

Campaign &
Campaign::seeds(int k)
{
    for (int i = 1; i < _argc; ++i) {
        const char *v = nullptr;
        if (std::strncmp(_argv[i], "--seeds=", 8) == 0)
            v = _argv[i] + 8;
        else if (std::strcmp(_argv[i], "--seeds") == 0)
            v = i + 1 < _argc ? _argv[i + 1] : "";
        if (v == nullptr)
            continue;
        k = parsePositive<int>(v, "--seeds expects a positive integer");
        break;
    }
    _nseeds = k;
    _seeds_axis = true;
    return *this;
}

Campaign &
Campaign::total(std::string field, std::string label, Armed armed)
{
    _totals.push_back(
        Total{std::move(field), std::move(label), std::move(armed)});
    return *this;
}

Campaign &
Campaign::gates(std::function<std::string(const Rows &)> fn)
{
    _gates = std::move(fn);
    return *this;
}

Campaign &
Campaign::workload(CampaignFn fn)
{
    _fn = std::move(fn);
    return *this;
}

void
Campaign::addPoint(const ImplCase &impl,
                   const std::vector<const Level *> &levels,
                   std::uint64_t seed, std::vector<Config> &cfgs)
{
    std::size_t index = cfgs.size();
    Config cfg = _ex.configFor(impl);
    cfg.machine.seed = seed;
    std::string row = impl.label, col, repro;
    auto append = [](std::string &to, const std::string &label) {
        to += (to.empty() ? "" : "/") + label;
    };
    for (std::size_t a = 0; a < _axes.size(); ++a) {
        const Level &lv = *levels[a];
        setKnob(_axes[a].knob, lv.spec, cfg);
        if (_axes[a].place == Place::ROW)
            row += " " + lv.label;
        else if (_axes[a].place == Place::COL)
            append(col, lv.label);
        repro += csprintf("%s='%s' ", envName(_axes[a].knob),
                          lv.spec.c_str());
    }
    std::string s = csprintf("%llu", (unsigned long long)seed);
    if (_seeds_axis)
        append(col, s);
    repro += _name + (_seeds_axis ? " --seeds 1" : "") + " --seed " + s;
    cfgs.push_back(cfg);

    std::string labels = row + " " + col;
    _ex.point(row, col, cfg, [this, impl, index, labels,
                              repro](System &sys) {
        std::vector<std::string> problems;
        bool gated = false;
        Gate gate = [&](bool completed, bool correct) {
            dsm_assert(!gated, "point %zu applied its gate twice", index);
            gated = true;
            problems = standardGates(sys, completed, correct);
            return problems.empty();
        };
        PointResult res = _fn(sys, impl, gate);
        dsm_assert(gated, "point %zu never applied its gate", index);
        if (!problems.empty()) {
            std::string report =
                csprintf("%s failure at point %zu, %s\nreproduce with: "
                         "%s\n",
                         _name.c_str(), index, labels.c_str(),
                         repro.c_str());
            for (const std::string &p : problems)
                report += p + "\n";
            std::lock_guard<std::mutex> g(_fail_mutex);
            _failures.push_back(
                Failure{index, labels, repro, std::move(report)});
        }
        return res;
    });
}

int
Campaign::run()
{
    dsm_assert(_fn != nullptr, "campaign %s has no workload",
               _name.c_str());
    // Impl-major, then each axis with the first declared slowest, then
    // seeds: the row order the shape gates index by.
    std::vector<Config> cfgs;
    std::vector<const Level *> at(_axes.size());
    std::size_t combos = 1;
    for (const Axis &ax : _axes)
        combos *= ax.levels.size();
    for (const ImplCase &impl : _impls) {
        for (std::size_t c = 0; c < combos; ++c) {
            std::size_t rest = c;
            for (std::size_t a = _axes.size(); a-- > 0;) {
                at[a] = &_axes[a].levels[rest % _axes[a].levels.size()];
                rest /= _axes[a].levels.size();
            }
            for (int k = 0; k < _nseeds; ++k)
                addPoint(impl, at, _seed + static_cast<std::uint64_t>(k),
                         cfgs);
        }
    }

    std::string shape = csprintf("%zu impls", _impls.size());
    for (const Axis &ax : _axes)
        if (ax.place != Place::NONE)
            shape += csprintf(" x %zu %s", ax.levels.size(),
                              kNoun[static_cast<int>(ax.knob)]);
    if (_seeds_axis)
        shape += csprintf(" x %d seeds", _nseeds);
    _ex.title(csprintf("%s from seed %llu", shape.c_str(),
                       (unsigned long long)_seed))
        .meta("seed", _seed);
    if (_seeds_axis)
        _ex.meta("seeds", _nseeds);
    _ex.run(_jobs);

    JsonValue doc;
    std::string err;
    if (!parseJson(_ex.reportJson(), &doc, &err))
        dsm_fatal("cannot reparse the campaign report: %s", err.c_str());
    const JsonValue *results = doc.find("results");
    dsm_assert(results != nullptr, "campaign report has no results");
    const Rows &rows = results->array;

    std::string line =
        csprintf("campaign: %zu points (%s)", cfgs.size(), shape.c_str());
    std::string errors;
    for (const Total &t : _totals) {
        std::uint64_t sum = sumField(rows, t.field);
        line += csprintf(", %llu %s", (unsigned long long)sum,
                         t.label.c_str());
        if (sum == 0 && t.armed &&
            std::any_of(cfgs.begin(), cfgs.end(), t.armed))
            errors += csprintf("%s stayed 0 although a level arms them; "
                               "the axis is miswired\n",
                               t.label.c_str());
    }
    bool custom = std::any_of(_axes.begin(), _axes.end(),
                              [](const Axis &ax) { return ax.custom; });
    if (_gates && !custom)
        errors += _gates(rows);

    // Point order, however --jobs scheduled them.
    std::sort(_failures.begin(), _failures.end(),
              [](const Failure &a, const Failure &b) {
                  return a.index < b.index;
              });
    std::printf("%s, %zu failure(s)\n", line.c_str(), _failures.size());
    std::string d = benchOutputDir();
    for (const Failure &f : _failures) {
        std::string path =
            csprintf("%s/WATCHDOG_%s_%zu_%s.txt", d.c_str(), _name.c_str(),
                     f.index, fileLabel(f.labels).c_str());
        std::ofstream(path, std::ios::binary) << f.report;
        std::fprintf(stderr, "FAILED %s -> %s\n", f.labels.c_str(),
                     path.c_str());
    }
    if (!errors.empty())
        std::printf("campaign error(s):\n%s", errors.c_str());
    if (!_failures.empty()) {
        std::printf("reproduce with: %s\n", _failures.front().repro.c_str());
    } else if (!errors.empty()) {
        // A campaign-level error needs the whole campaign to reproduce.
        std::string repro;
        for (const Axis &ax : _axes)
            if (ax.custom)
                repro += csprintf("%s='%s' ", envName(ax.knob),
                                  ax.levels[0].spec.c_str());
        repro += _name;
        if (_seeds_axis)
            repro += csprintf(" --seeds %d", _nseeds);
        std::printf("reproduce with: %s --seed %llu\n", repro.c_str(),
                    (unsigned long long)_seed);
    }
    std::fflush(stdout);
    return _failures.empty() && errors.empty() ? 0 : 1;
}

} // namespace dsm
