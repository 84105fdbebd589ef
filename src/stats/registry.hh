/**
 * @file
 * Hierarchical statistics registry over a declared schema.
 *
 * A StatSchema is a fixed table of rows: dotted paths ("net.flits",
 * "cache.hits") with captureless readers, plus an optional per-node
 * table rendered once under "node<i>" for every node. A schema is
 * built once per process, with each path split into its segments then;
 * a StatsRegistry only binds it to the object its readers take and to a
 * node count, so binding costs nothing and rows read the components'
 * own counters when rendered. Consumers take scalar snapshots (for
 * warmup-vs-measurement diffs) or render the whole tree as nested JSON.
 */

#ifndef DSM_STATS_REGISTRY_HH
#define DSM_STATS_REGISTRY_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats/histogram.hh"
#include "stats/stat_set.hh"

namespace dsm {

class JsonWriter;

/**
 * One declared statistic. Readers take the bound object, the node
 * index (per-node rows; 0 for global rows) and the row's own @c arg.
 */
struct StatRow
{
    using CounterFn = std::uint64_t (*)(const void *obj, int node, int arg);
    using HistogramFn = const Histogram *(*)(const void *obj, int node,
                                             int arg);
    using LatencyFn = const LatencyStat *(*)(const void *obj, int node,
                                             int arg);
    using GateFn = bool (*)(const void *obj);

    std::string path;
    // Exactly one reader is set.
    CounterFn counter = nullptr;
    HistogramFn hist = nullptr;
    LatencyFn lat = nullptr;
    /** Passed to the reader, e.g. the AtomicOp of a per-op row. */
    int arg = 0;
    /** Global rows only: the row exists while this holds (null = always). */
    GateFn gate = nullptr;
};

/**
 * An immutable statistics tree: global rows, plus a per-node table
 * that renders as "node<i>.<path>" for each node. Both tables are
 * sorted by path once, so rendering visits rows in full-path order:
 * the per-node block sits where "node" sorts among the global paths,
 * and nodes follow in decimal-string order (node0, node1, node10, ...)
 * because '.' sorts before every digit.
 */
class StatSchema
{
  public:
    StatSchema(std::vector<StatRow> global,
               std::vector<StatRow> per_node = {});

  private:
    friend class StatsRegistry;

    struct Table
    {
        std::vector<StatRow> rows;
        /** rows[i].path split at its dots. */
        std::vector<std::vector<std::string>> parts;
    };

    static Table sorted(std::vector<StatRow> rows);

    Table _global;
    Table _node;
    /** Index of the first global row that sorts after the node block. */
    std::size_t _node_pos = 0;
};

/** A StatSchema bound to the object its rows read. */
class StatsRegistry
{
  public:
    /** Scalar view of the registry at one instant: path -> value. */
    using Snapshot = std::map<std::string, std::uint64_t>;

    /**
     * Bind @p schema (which must outlive the registry) to @p obj, with
     * @p nodes copies of its per-node table.
     */
    StatsRegistry(const StatSchema &schema, const void *obj, int nodes = 0);

    /**
     * Scalar snapshot of every row. Histograms contribute
     * "<path>.samples" and "<path>.sum"; latencies contribute
     * "<path>.count" and "<path>.sum".
     */
    Snapshot snapshot() const;

    /**
     * Per-key difference @p after - @p before (keys missing from
     * @p before count as zero). Used to isolate the measurement phase
     * from warmup.
     */
    static Snapshot diff(const Snapshot &after, const Snapshot &before);

    /** Render the whole registry as a nested JSON object. */
    void writeJson(JsonWriter &w) const;

    /** writeJson() into a fresh document. */
    std::string toJson() const;

    /** Number of rows present (gated-off rows excluded). */
    std::size_t size() const;

  private:
    /** True when global row @p r is present. */
    bool on(const StatRow &r) const { return !r.gate || r.gate(_obj); }

    const StatSchema *_schema;
    const void *_obj;
    int _nodes;
};

} // namespace dsm

#endif // DSM_STATS_REGISTRY_HH
