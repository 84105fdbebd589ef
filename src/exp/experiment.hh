/**
 * @file
 * First-class experiment driver for the paper-reproduction benchmarks.
 *
 * An Experiment describes a named sweep as a list of Points (Config +
 * SyncConfig + Primitive + workload closure + seed) and executes them
 * with a SweepRunner across host threads (--jobs N / $DSM_JOBS). Rows,
 * text blocks, and the BENCH_<name>.json report are emitted in
 * declaration order, so parallel output is bit-identical to serial.
 *
 * Two styles compose:
 *
 *  - fluent matrix sweeps (Figures 3-5, ablations):
 *        Experiment::paper64("fig3_lockfree_counter")
 *            .impls(figureMatrix())
 *            .workload(fn)           // (System &, ImplCase, SweepPoint)
 *            .sweep("a", {1, 1.5, 2, 3, 10})
 *            .sweep("c", {2, 4, 8, 16, 64})
 *            .run(jobs);
 *
 *  - explicit points (Figure 2, Table 1, directed experiments):
 *        ex.point(rowLabel, colLabel, cfg, fn);  // fn: (System &)
 *
 * The implementation matrix of Section 3 (policy x primitive x variant
 * x auxiliary instructions) lives here too: figureMatrix() is the full
 * set shown in Figures 3-5, applicationMatrix() the reduced policy x
 * primitive set used by Figure 6 and the ablations.
 */

#ifndef DSM_EXP_EXPERIMENT_HH
#define DSM_EXP_EXPERIMENT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "exp/sweep_runner.hh"
#include "sim/config.hh"
#include "stats/bench_report.hh"

namespace dsm {

/** One implementation under study: a (primitive, SyncConfig) pair. */
struct ImplCase
{
    std::string label;  ///< e.g. "INV CAS+lx" or "UNC FAP"
    Primitive prim;
    SyncConfig sync;
};

/**
 * The full set of implementations shown in Figures 3-5, grouped as in
 * the paper: UNC bars, then INV bars without/with drop_copy (CAS in the
 * INV, INVd, INVs, and INV+load_exclusive variants), then UPD bars
 * without/with drop_copy.
 */
std::vector<ImplCase> figureMatrix();

/** The reduced (policy x primitive) matrix used for Figure 6. */
std::vector<ImplCase> applicationMatrix();

/** One sweep column, as seen by a workload closure. */
struct SweepPoint
{
    std::string key;    ///< sweep parameter name, e.g. "c"
    double value = 0;   ///< parameter value (or case index)
    std::string label;  ///< column label, e.g. "c=64"
};

/** Workload closure for matrix sweeps declared via impls()/sweep(). */
using WorkloadFn = std::function<PointResult(
    System &, const ImplCase &, const SweepPoint &)>;

/**
 * A named experiment: base machine config, declared points, and the
 * table/report conventions. run() executes all points (in parallel if
 * asked), prints the table and text blocks in declaration order, and
 * writes BENCH_<name>.json.
 */
class Experiment
{
  public:
    /** An experiment on the paper's machine: 64 nodes on an 8x8 mesh. */
    static Experiment paper64(std::string name,
                              SyncPolicy pol = SyncPolicy::INV);

    Experiment(std::string name, Config base);

    /** @name Description. @{ */

    /** Append a line printed above the table. */
    Experiment &title(const std::string &line);

    /** Run-level metadata recorded in the report's meta object. */
    Experiment &meta(const std::string &k, const std::string &v);
    Experiment &meta(const std::string &k, double v);
    Experiment &meta(const std::string &k, std::uint64_t v);
    Experiment &meta(const std::string &k, int v);

    /** Key naming the row label in report rows (default "impl"). */
    Experiment &rowKey(std::string k);
    /** Key naming the column label ("point" by default; "" omits it). */
    Experiment &colKey(std::string k);
    /** Enable/disable the plain-text value table (default on). */
    Experiment &table(bool on);
    /** Suppress all stdout (tableText() still accumulates). */
    Experiment &quiet(bool on);
    /** Enable/disable writing BENCH_<name>.json (default on). */
    Experiment &writeReport(bool on);

    /**
     * Enable transaction tracing on every point: each point's Config
     * gets txn_trace.enabled, its results gain per-phase latency
     * attribution (a "txn_phases" report field plus txn_* counters),
     * and — when report writing is on — the merged Chrome trace is
     * written as TRACE_<name>.json next to BENCH_<name>.json. Also
     * switched on by a nonempty $DSM_TXN_TRACE (other than "0").
     */
    Experiment &traceTxns(bool on);

    /**
     * Enable time-resolved telemetry on every point: each point's
     * Config gets telemetry.enabled, its System samples every series
     * at each window boundary, and — when report writing is on — the
     * merged dsm-timeseries-v1 document is written as
     * TIMESERIES_<name>.json (plus a self-contained HTML rendering,
     * TIMESERIES_<name>.html) next to BENCH_<name>.json. Also switched
     * on by a nonempty $DSM_TIMESERIES (other than "0"). The merged
     * document is assembled in declaration order, so a parallel run's
     * export is byte-identical to a serial one.
     */
    Experiment &timeseries(bool on);

    /**
     * Override the machine RNG seed of every point (0 is a no-op, so
     * chaining `.seed(parseSeedFlag(argc, argv))` is safe). Also
     * honoured from $DSM_SEED when no explicit seed is given. When a
     * seed is applied — and only then — it is recorded in the report's
     * meta object as "seed", keeping default reports byte-identical.
     */
    Experiment &seed(std::uint64_t s);

    /** @} */

    /** @name Configuration. @{ */

    /** The base machine config every point starts from (mutable). */
    Config &baseConfig() { return _base; }
    const Config &baseConfig() const { return _base; }

    /** Base config with the sync policy replaced. */
    Config configFor(SyncPolicy pol) const;

    /** Base config with the implementation's SyncConfig applied. */
    Config configFor(const ImplCase &impl) const;

    /** @} */

    /** @name Matrix sweeps. @{ */

    /** The implementation matrix crossed with every sweep() call. */
    Experiment &impls(std::vector<ImplCase> matrix);

    /** The closure run for every (impl x sweep point) combination. */
    Experiment &workload(WorkloadFn fn);

    /**
     * Add one numeric sweep dimension: a column per value, labelled
     * "<key>=<value>". Points expand impl-major at run() time, so every
     * implementation's row holds each sweep's columns in order.
     */
    Experiment &sweep(const std::string &key, std::vector<double> values);

    /** Like sweep(), with named cases; SweepPoint.value is the index. */
    Experiment &cases(const std::string &key,
                      std::vector<std::string> labels);

    /** @} */

    /** Add one explicit point (declaration order is output order). */
    Experiment &point(std::string row, std::string col, Config cfg,
                      PointFn fn);

    /**
     * Execute every declared point and emit results.
     * @param jobs Worker threads; <= 0 resolves via $DSM_JOBS, else 1.
     * @return results in declaration order.
     */
    const std::vector<PointResult> &run(int jobs = 0);

    /** Results of the last run(), in declaration order. */
    const std::vector<PointResult> &results() const { return _results; }

    /** The points declared so far (explicit + expanded after run()). */
    std::size_t numPoints() const { return _points.size(); }

    /** Everything printed (or suppressed by quiet()) by run(). */
    const std::string &tableText() const { return _rendered; }

    /** The machine-readable report document of the last run(). */
    std::string reportJson() const { return _report.toJson(); }

    /** Where run() wrote the report ("" before run / on failure). */
    const std::string &reportPath() const { return _report_path; }

    /** The merged dsm-timeseries-v1 document ("" unless telemetry ran). */
    const std::string &timeseriesJson() const { return _timeseries_json; }

    /** Where run() wrote TIMESERIES_<name>.json ("" if not written). */
    const std::string &timeseriesPath() const { return _timeseries_path; }

  private:
    struct SweepSpec
    {
        std::string key;
        std::vector<double> values;
        std::vector<std::string> labels;
    };

    void expandMatrix();
    void emit(const std::string &s);
    std::string headerText() const;
    std::string rowText(const std::string &row,
                        const std::vector<const PointResult *> &cells)
        const;

    std::string _name;
    Config _base;
    std::vector<std::string> _titles;
    std::string _row_key = "impl";
    std::string _col_key = "point";
    bool _table = true;
    bool _quiet = false;
    bool _write_report = true;
    bool _trace_txns = false;
    bool _txn_wrapped = false;
    bool _timeseries = false;
    bool _ts_wrapped = false;
    std::uint64_t _seed = 0;
    bool _seed_applied = false;
    bool _faults_applied = false;

    std::vector<ImplCase> _impls;
    WorkloadFn _workload;
    std::vector<SweepSpec> _sweeps;
    std::vector<Point> _points;
    bool _expanded = false;

    std::vector<PointResult> _results;
    BenchReport _report;
    std::string _report_path;
    std::string _timeseries_json;
    std::string _timeseries_path;
    std::string _rendered;

    /** Column labels in first-appearance order. */
    std::vector<std::string> _cols;
    /** Label width of the printed table. */
    std::size_t _label_width = 16;
};

} // namespace dsm

#endif // DSM_EXP_EXPERIMENT_HH
