#include "exp/experiment.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_map>

#include "cpu/system.hh"
#include "fault/fault.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "stats/telemetry_html.hh"

namespace dsm {

std::vector<ImplCase>
figureMatrix()
{
    std::vector<ImplCase> v;
    auto add = [&v](SyncPolicy pol, Primitive prim, CasVariant var,
                    bool lx, bool dc) {
        SyncConfig sc;
        sc.policy = pol;
        sc.cas_variant = var;
        sc.use_load_exclusive = lx;
        sc.use_drop_copy = dc;
        std::string label = std::string(toString(pol)) + " ";
        if (pol == SyncPolicy::INV && var != CasVariant::PLAIN)
            label = std::string(toString(var)) + " ";
        label += toString(prim);
        if (lx)
            label += "+lx";
        if (dc)
            label += "+dc";
        v.push_back({label, prim, sc});
    };

    // UNC: no caching, so no drop_copy / load_exclusive variants.
    add(SyncPolicy::UNC, Primitive::FAP, CasVariant::PLAIN, false, false);
    add(SyncPolicy::UNC, Primitive::LLSC, CasVariant::PLAIN, false, false);
    add(SyncPolicy::UNC, Primitive::CAS, CasVariant::PLAIN, false, false);

    for (bool dc : {false, true}) {
        add(SyncPolicy::INV, Primitive::FAP, CasVariant::PLAIN, false, dc);
        add(SyncPolicy::INV, Primitive::LLSC, CasVariant::PLAIN, false,
            dc);
        add(SyncPolicy::INV, Primitive::CAS, CasVariant::PLAIN, false, dc);
        add(SyncPolicy::INV, Primitive::CAS, CasVariant::DENY, false, dc);
        add(SyncPolicy::INV, Primitive::CAS, CasVariant::SHARE, false, dc);
        add(SyncPolicy::INV, Primitive::CAS, CasVariant::PLAIN, true, dc);
    }
    for (bool dc : {false, true}) {
        add(SyncPolicy::UPD, Primitive::FAP, CasVariant::PLAIN, false, dc);
        add(SyncPolicy::UPD, Primitive::LLSC, CasVariant::PLAIN, false,
            dc);
        add(SyncPolicy::UPD, Primitive::CAS, CasVariant::PLAIN, false, dc);
    }
    return v;
}

std::vector<ImplCase>
applicationMatrix()
{
    std::vector<ImplCase> v;
    for (SyncPolicy pol :
         {SyncPolicy::UNC, SyncPolicy::INV, SyncPolicy::UPD}) {
        for (Primitive prim :
             {Primitive::FAP, Primitive::LLSC, Primitive::CAS}) {
            SyncConfig sc;
            sc.policy = pol;
            std::string label =
                std::string(toString(pol)) + " " + toString(prim);
            v.push_back({label, prim, sc});
        }
    }
    return v;
}

Experiment
Experiment::paper64(std::string name, SyncPolicy pol)
{
    Config cfg; // defaults are the paper's machine: 64 nodes, 8x8 mesh
    cfg.sync.policy = pol;
    return Experiment(std::move(name), cfg);
}

Experiment::Experiment(std::string name, Config base)
    : _name(std::move(name)), _base(std::move(base)), _report(_name)
{
}

Experiment &
Experiment::title(const std::string &line)
{
    _titles.push_back(line);
    return *this;
}

Experiment &
Experiment::meta(const std::string &k, const std::string &v)
{
    _report.meta(k, v);
    return *this;
}

Experiment &
Experiment::meta(const std::string &k, double v)
{
    _report.meta(k, v);
    return *this;
}

Experiment &
Experiment::meta(const std::string &k, std::uint64_t v)
{
    _report.meta(k, v);
    return *this;
}

Experiment &
Experiment::meta(const std::string &k, int v)
{
    _report.meta(k, v);
    return *this;
}

Experiment &
Experiment::rowKey(std::string k)
{
    _row_key = std::move(k);
    return *this;
}

Experiment &
Experiment::colKey(std::string k)
{
    _col_key = std::move(k);
    return *this;
}

Experiment &
Experiment::table(bool on)
{
    _table = on;
    return *this;
}

Experiment &
Experiment::quiet(bool on)
{
    _quiet = on;
    return *this;
}

Experiment &
Experiment::writeReport(bool on)
{
    _write_report = on;
    return *this;
}

Experiment &
Experiment::traceTxns(bool on)
{
    _trace_txns = on;
    return *this;
}

Experiment &
Experiment::timeseries(bool on)
{
    _timeseries = on;
    return *this;
}

Experiment &
Experiment::seed(std::uint64_t s)
{
    if (s != 0)
        _seed = s;
    return *this;
}

Config
Experiment::configFor(SyncPolicy pol) const
{
    Config cfg = _base;
    cfg.sync.policy = pol;
    return cfg;
}

Config
Experiment::configFor(const ImplCase &impl) const
{
    Config cfg = _base;
    cfg.sync = impl.sync;
    return cfg;
}

Experiment &
Experiment::impls(std::vector<ImplCase> matrix)
{
    _impls = std::move(matrix);
    return *this;
}

Experiment &
Experiment::workload(WorkloadFn fn)
{
    _workload = std::move(fn);
    return *this;
}

Experiment &
Experiment::sweep(const std::string &key, std::vector<double> values)
{
    SweepSpec spec;
    spec.key = key;
    for (double v : values)
        spec.labels.push_back(csprintf("%s=%g", key.c_str(), v));
    spec.values = std::move(values);
    _sweeps.push_back(std::move(spec));
    return *this;
}

Experiment &
Experiment::cases(const std::string &key, std::vector<std::string> labels)
{
    SweepSpec spec;
    spec.key = key;
    for (std::size_t i = 0; i < labels.size(); ++i)
        spec.values.push_back(static_cast<double>(i));
    spec.labels = std::move(labels);
    _sweeps.push_back(std::move(spec));
    return *this;
}

Experiment &
Experiment::point(std::string row, std::string col, Config cfg,
                  PointFn fn)
{
    dsm_assert(fn != nullptr, "point without a workload closure");
    _points.push_back(Point{std::move(row), std::move(col),
                            std::move(cfg), std::move(fn)});
    return *this;
}

void
Experiment::expandMatrix()
{
    if (_expanded)
        return;
    _expanded = true;
    if (_impls.empty() && _sweeps.empty())
        return;
    dsm_assert(!_impls.empty() && !_sweeps.empty() &&
                   _workload != nullptr,
               "matrix sweeps need impls(), sweep()/cases(), and "
               "workload()");
    // Impl-major expansion: every implementation's row collects each
    // sweep's columns in declaration order.
    for (const ImplCase &impl : _impls) {
        Config cfg = configFor(impl);
        for (const SweepSpec &spec : _sweeps) {
            for (std::size_t i = 0; i < spec.values.size(); ++i) {
                SweepPoint sp{spec.key, spec.values[i], spec.labels[i]};
                WorkloadFn fn = _workload;
                ImplCase ic = impl;
                _points.push_back(Point{
                    impl.label, sp.label, cfg,
                    [fn, ic, sp](System &sys) {
                        return fn(sys, ic, sp);
                    }});
            }
        }
    }
}

void
Experiment::emit(const std::string &s)
{
    _rendered += s;
    if (!_quiet) {
        std::fputs(s.c_str(), stdout);
        std::fflush(stdout);
    }
}

std::string
Experiment::headerText() const
{
    std::string out = "\n";
    out += csprintf("%-*s", static_cast<int>(_label_width),
                    _row_key.c_str());
    for (const std::string &c : _cols)
        out += csprintf(" %10s", c.c_str());
    out += "\n";
    out.append(_label_width + 11 * _cols.size(), '-');
    out += "\n";
    return out;
}

std::string
Experiment::rowText(const std::string &row,
                    const std::vector<const PointResult *> &cells) const
{
    std::string out = csprintf("%-*s", static_cast<int>(_label_width),
                               row.c_str());
    for (const PointResult *r : cells)
        out += csprintf(" %10.1f", r->value);
    out += "\n";
    return out;
}

const std::vector<PointResult> &
Experiment::run(int jobs)
{
    expandMatrix();

    // Seed override: an explicit seed() wins over $DSM_SEED. Recorded
    // in the report meta only when actually applied, so default runs
    // stay byte-identical to reports written before seeds existed.
    std::uint64_t s = _seed != 0 ? _seed : seedFromEnv();
    if (s != 0 && !_seed_applied) {
        _seed_applied = true;
        for (Point &p : _points)
            p.cfg.machine.seed = s;
        _report.meta("seed", s);
    }

    // Fault plan: $DSM_FAULTS, recorded in the meta object as "faults"
    // when applied.
    FaultConfig fc = faultConfigFromEnv();
    if (fc.enabled && !_faults_applied) {
        _faults_applied = true;
        for (Point &p : _points)
            p.cfg.faults = fc;
        _report.meta("faults", fc.summary());
    }

    // Transaction tracing: flip it on in every point's Config and wrap
    // each point function to harvest the tracer after the workload
    // returns. The Chrome pid and process name are baked in from the
    // declaration index, so a parallel run's harvest is byte-identical
    // to a serial one.
    bool txn_on = _trace_txns || envFlag("DSM_TXN_TRACE");
    if (txn_on && !_txn_wrapped) {
        _txn_wrapped = true;
        for (std::size_t i = 0; i < _points.size(); ++i) {
            Point &p = _points[i];
            p.cfg.txn_trace.enabled = true;
            PointFn inner = std::move(p.fn);
            int pid = static_cast<int>(i);
            std::string pname =
                p.col.empty() ? p.row : p.row + " " + p.col;
            p.fn = [inner, pid, pname](System &sys) {
                PointResult r = inner(sys);
                const TxnTracer &tx = sys.txns();
                r.fields.set("txn_completed", tx.completed());
                r.fields.set("txn_phase_sum_mismatches",
                             tx.phaseSumMismatches());
                r.fields.set("txn_chain_divergences",
                             tx.chainDivergences());
                r.fields.setRaw("txn_phases",
                                tx.attribution().phasesJson());
                r.txn_events = tx.chromeEventsJsonArray(pid, pname);
                r.txn_summary = tx.attribution().summaryLine();
                r.txn_divergences = tx.chainDivergences();
                r.txn_mismatches = tx.phaseSumMismatches();
                return r;
            };
        }
    }

    // Time-resolved telemetry: flip it on in every point's Config and
    // wrap each point function to harvest the finalized telemetry
    // snapshot after the workload returns. Harvests are merged in
    // declaration order below, so --jobs never changes the document.
    bool ts_on = _timeseries || envFlag("DSM_TIMESERIES");
    if (ts_on && !_ts_wrapped) {
        _ts_wrapped = true;
        for (Point &p : _points) {
            p.cfg.telemetry.enabled = true;
            PointFn inner = std::move(p.fn);
            p.fn = [inner](System &sys) {
                PointResult r = inner(sys);
                r.ts_json = sys.telemetryJson();
                return r;
            };
        }
    }

    // Column order and label width for the printed table.
    _cols.clear();
    for (const Point &p : _points) {
        if (!p.col.empty() &&
            std::find(_cols.begin(), _cols.end(), p.col) == _cols.end())
            _cols.push_back(p.col);
        _label_width = std::max(_label_width, p.row.size());
    }

    // The last point of each row triggers that row's table line.
    std::unordered_map<std::string, std::size_t> last_of_row;
    std::unordered_map<std::string, std::vector<std::size_t>> row_points;
    for (std::size_t i = 0; i < _points.size(); ++i) {
        last_of_row[_points[i].row] = i;
        row_points[_points[i].row].push_back(i);
    }

    for (const std::string &t : _titles)
        emit(t + "\n");
    if (_table && !_points.empty())
        emit(headerText());

    std::vector<char> done(_points.size(), 0);
    std::size_t frontier = 0;

    SweepRunner runner(jobs);
    runner.runInto(_points, _results, [&](std::size_t i) {
        done[i] = 1;
        // Emit output for every completed prefix point, in declaration
        // order: text blocks as they come, a table row once its last
        // point is in. Runs under the runner's lock, so parallel sweeps
        // print byte-identically to serial ones.
        while (frontier < _points.size() && done[frontier]) {
            const PointResult &r = _results[frontier];
            if (!r.text.empty())
                emit(r.text);
            if (_table &&
                last_of_row[_points[frontier].row] == frontier) {
                std::vector<const PointResult *> cells;
                for (std::size_t j : row_points[_points[frontier].row])
                    cells.push_back(&_results[j]);
                emit(rowText(_points[frontier].row, cells));
            }
            ++frontier;
        }
    });

    // Assemble the machine-readable report in declaration order. The
    // report never records the job count: the document must be
    // bit-identical however the sweep was scheduled.
    _report.meta("procs", _base.machine.num_procs);
    _report.meta("mesh_x", _base.machine.mesh_x);
    _report.meta("mesh_y", _base.machine.mesh_y);
    for (std::size_t i = 0; i < _points.size(); ++i) {
        BenchRow out;
        if (!_row_key.empty())
            out.set(_row_key, _points[i].row);
        if (!_col_key.empty() && !_points[i].col.empty())
            out.set(_col_key, _points[i].col);
        out.merge(_results[i].fields);
        out.metrics(_results[i].metrics);
        _report.append(std::move(out));
    }
    if (_write_report) {
        _report_path = _report.write();
        if (!_report_path.empty())
            emit(csprintf("\nwrote %s\n", _report_path.c_str()));
    }

    if (txn_on) {
        std::uint64_t divergences = 0, mismatches = 0;
        for (const PointResult &r : _results) {
            divergences += r.txn_divergences;
            mismatches += r.txn_mismatches;
        }
        emit(csprintf("txn trace: %llu chain divergences, %llu "
                      "phase-sum mismatches across %zu points\n",
                      (unsigned long long)divergences,
                      (unsigned long long)mismatches,
                      _results.size()));
        if (_write_report) {
            const char *dir = std::getenv("DSM_BENCH_DIR");
            std::string d = dir != nullptr && dir[0] != '\0' ? dir : ".";
            std::string path = d + "/TRACE_" + _name + ".json";
            std::ofstream out(path, std::ios::binary);
            if (out) {
                // Merge the per-point event arrays into one Chrome
                // trace document; each fragment is a complete JSON
                // array, so strip the outer brackets before joining.
                out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
                bool first = true;
                for (const PointResult &r : _results) {
                    if (r.txn_events.size() <= 2)
                        continue; // "[]": no events
                    if (!first)
                        out << ',';
                    first = false;
                    out.write(r.txn_events.data() + 1,
                              static_cast<std::streamsize>(
                                  r.txn_events.size() - 2));
                }
                out << "]}\n";
            }
            if (!out) {
                dsm_warn("could not write txn trace %s", path.c_str());
            } else {
                _trace_path = path;
                emit(csprintf("wrote %s\n", path.c_str()));
            }
        }
    }

    if (ts_on) {
        // Merge the per-point telemetry fragments into one
        // dsm-timeseries-v1 document. Each fragment is a complete JSON
        // object, so splice its members after the point's identity keys
        // by stripping the opening brace.
        std::string doc = "{\"schema\":\"dsm-timeseries-v1\",\"bench\":\"" +
                          jsonEscape(_name) + "\",\"meta\":{\"procs\":" +
                          csprintf("%d", _base.machine.num_procs) +
                          ",\"mesh_x\":" +
                          csprintf("%d", _base.machine.mesh_x) +
                          ",\"mesh_y\":" +
                          csprintf("%d", _base.machine.mesh_y) +
                          "},\"points\":[";
        for (std::size_t i = 0; i < _points.size(); ++i) {
            if (i != 0)
                doc += ',';
            doc += "{\"impl\":\"" + jsonEscape(_points[i].row) +
                   "\",\"point\":\"" + jsonEscape(_points[i].col) + "\"";
            const std::string &frag = _results[i].ts_json;
            if (frag.size() > 2)
                doc += "," + frag.substr(1);
            else
                doc += "}";
        }
        doc += "]}";
        _timeseries_json = std::move(doc);
        if (_write_report) {
            const char *dir = std::getenv("DSM_BENCH_DIR");
            std::string d = dir != nullptr && dir[0] != '\0' ? dir : ".";
            std::string path = d + "/TIMESERIES_" + _name + ".json";
            std::ofstream out(path, std::ios::binary);
            if (out)
                out << _timeseries_json << '\n';
            if (!out) {
                dsm_warn("could not write timeseries %s", path.c_str());
            } else {
                _timeseries_path = path;
                emit(csprintf("wrote %s\n", path.c_str()));
            }
            std::string hpath = d + "/TIMESERIES_" + _name + ".html";
            if (writeTelemetryHtml(hpath, _timeseries_json, _name)) {
                _timeseries_html_path = hpath;
                emit(csprintf("wrote %s\n", hpath.c_str()));
            }
        }
    }
    return _results;
}

} // namespace dsm
