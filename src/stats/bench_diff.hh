/**
 * @file
 * Exact comparison of dsm-bench-v1 reports against golden baselines.
 *
 * diffBenchReports() compares a baseline and a candidate report row by
 * row. Rows are matched by position and verified by their identifying
 * string fields (implementation label, sweep-point label); every other
 * value of the row, nested objects and arrays included, must then be
 * exactly equal. The simulator is deterministic and host-independent,
 * so a result that moves at all -- in either direction -- is a change
 * in simulated behaviour, and the verdict has no noise threshold. Each
 * moved number is listed as a finding, so a change that moves results
 * on purpose reads as a per-metric diff.
 *
 * The bench/bench_diff CLI wraps this over files or whole directories
 * of BENCH_*.json snapshots; CI runs it against bench/baselines/ over
 * the whole paper reproduction.
 */

#ifndef DSM_STATS_BENCH_DIFF_HH
#define DSM_STATS_BENCH_DIFF_HH

#include <string>
#include <vector>

namespace dsm {

struct JsonValue;

/** One result number that differs from its baseline. */
struct DiffFinding
{
    std::string bench; ///< bench name from the report
    std::string row;   ///< row identity (string fields joined)
    std::string metric; ///< field path, e.g. "p99" or "chain.GET_S"
    double base = 0.0;
    double cand = 0.0;
    double change_pct = 0.0; ///< signed, relative to base
};

/** Outcome of comparing one report pair or two snapshot directories. */
struct DiffResult
{
    /**
     * Every result number that moved off its baseline, in either
     * direction: the baselines are golden, so any move fails.
     */
    std::vector<DiffFinding> regressions;
    /**
     * Structural problems: schema/bench/row mismatches, parse errors,
     * missing or new fields, and changed non-numeric values.
     */
    std::vector<std::string> errors;
    int rows_compared = 0;
    int metrics_compared = 0;

    bool ok() const { return regressions.empty() && errors.empty(); }

    /** Fold another result (e.g. one more file of a directory) in. */
    void merge(const DiffResult &other);
};

/** Compare two parsed dsm-bench-v1 documents. */
DiffResult diffBenchReports(const JsonValue &base, const JsonValue &cand);

/** Compare two BENCH_*.json files. */
DiffResult diffBenchFiles(const std::string &base_path,
                          const std::string &cand_path);

/**
 * Compare every BENCH_*.json in @p base_dir against the same-named
 * file in @p cand_dir. A baseline file with no candidate counterpart
 * is an error; extra candidate files are ignored (a bench without a
 * baseline has nothing to be compared against).
 */
DiffResult diffBenchDirs(const std::string &base_dir,
                         const std::string &cand_dir);

/** Human-readable rendering, one line per finding/error plus summary. */
std::string renderDiff(const DiffResult &r);

} // namespace dsm

#endif // DSM_STATS_BENCH_DIFF_HH
