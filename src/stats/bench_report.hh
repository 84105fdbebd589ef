/**
 * @file
 * Machine-readable benchmark output.
 *
 * Every bench binary builds a BenchReport and writes BENCH_<name>.json
 * next to (or instead of) its plain-text tables, so figure/table data
 * can be consumed by scripts without screen-scraping. The schema is
 * "dsm-bench-v1": a meta object describing the run plus a flat results
 * array of rows, each row naming the implementation, the sweep point,
 * and the measured metrics (mean latency, percentiles, message counts).
 */

#ifndef DSM_STATS_BENCH_REPORT_HH
#define DSM_STATS_BENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace dsm {

class System;

/** Metrics harvested from one measured run window. */
struct RunMetrics
{
    std::uint64_t ops = 0;       ///< completed processor operations
    double mean_latency = 0.0;   ///< mean op latency (cycles)
    Tick p50 = 0;
    Tick p95 = 0;
    Tick p99 = 0;
    Tick p999 = 0;
    Tick max_latency = 0;
    std::uint64_t messages = 0;  ///< network messages
    std::uint64_t flits = 0;
    std::uint64_t nacks = 0;
    std::uint64_t retries = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t updates = 0;
    Tick ticks = 0;              ///< simulated time at harvest
};

/** Harvest the standard metrics from a system after a run. */
RunMetrics collectRunMetrics(System &sys);

/**
 * Directory every bench output file (BENCH_, TRACE_, TIMESERIES_,
 * WATCHDOG_ and MC_DUMP_) is written to: $DSM_BENCH_DIR, or "." when it
 * is unset or empty.
 */
std::string benchOutputDir();

/** One result row: ordered key -> rendered-JSON-value pairs. */
class BenchRow
{
  public:
    BenchRow &set(const std::string &k, const std::string &v);
    BenchRow &set(const std::string &k, const char *v);
    BenchRow &set(const std::string &k, double v);
    BenchRow &set(const std::string &k, std::uint64_t v);
    BenchRow &set(const std::string &k, int v);

    /** Set @p k to already-rendered JSON (object/array spliced as-is). */
    BenchRow &setRaw(const std::string &k, std::string rendered_json);

    /** Splice the standard metric keys of @p m into this row. */
    BenchRow &metrics(const RunMetrics &m);

    /** Append every field of @p other, preserving order. */
    BenchRow &merge(const BenchRow &other);

  private:
    friend class BenchReport;
    std::vector<std::pair<std::string, std::string>> _fields;
};

/**
 * Accumulates rows for one bench binary and writes BENCH_<name>.json
 * into benchOutputDir().
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string name);

    /** Add a run-level metadata entry (rendered under "meta"). */
    void meta(const std::string &k, const std::string &v);
    void meta(const std::string &k, double v);
    void meta(const std::string &k, std::uint64_t v);
    void meta(const std::string &k, int v);

    /** Append and return a new result row. */
    BenchRow &row();

    /** Append a fully built row (used by the Experiment API). */
    void append(BenchRow row) { _rows.push_back(std::move(row)); }

    std::size_t numRows() const { return _rows.size(); }

    /** The full document (no provenance; byte-stable per run config). */
    std::string toJson() const;

    /** Path the report will be written to. */
    std::string outputPath() const;

    /**
     * Write the document to outputPath(), with run-provenance entries
     * (git_sha, wall_ms, host_cores) appended to the meta object. Only
     * the written file carries provenance — toJson() never does, so
     * in-memory documents stay byte-identical across hosts and
     * schedules.
     * @return the path written, or "" on I/O failure (warned).
     */
    std::string write() const;

  private:
    /** Render, optionally appending provenance meta entries. */
    std::string render(bool provenance) const;

    std::string _name;
    std::vector<std::pair<std::string, std::string>> _meta;
    std::vector<BenchRow> _rows;
    /** Construction time, for the written report's wall_ms. */
    std::chrono::steady_clock::time_point _created;
};

} // namespace dsm

#endif // DSM_STATS_BENCH_REPORT_HH
