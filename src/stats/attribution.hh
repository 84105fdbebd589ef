/**
 * @file
 * Per-phase latency attribution for traced transactions.
 *
 * The transaction tracer (trace/txn.hh) partitions every completed
 * operation's lifetime [issue, complete] into non-overlapping phase
 * segments; this aggregator folds those segments into per-op x
 * per-phase latency accumulators so benches and statsJson() can report
 * where an atomic operation's cycles go (the breakdown the paper uses
 * to explain Table 1 and the Section 5 figures).
 */

#ifndef DSM_STATS_ATTRIBUTION_HH
#define DSM_STATS_ATTRIBUTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "stats/stat_set.hh"

namespace dsm {

/**
 * Phases of a traced transaction. Every cycle between issue and
 * completion is attributed to exactly one phase, so the per-phase sums
 * of a transaction always add up to its end-to-end latency.
 */
enum class TxnPhase : std::uint8_t
{
    CACHE,         ///< local cache lookup / hit service
    REQ_TRANSIT,   ///< request (or forward) on the wire toward service
    DIR_QUEUE,     ///< waiting in the home memory module's queue
    DIR_SERVICE,   ///< directory + memory service time at the home
    OWNER,         ///< owner cache servicing a forwarded request
    FANOUT,        ///< waiting on invalidation / update acknowledgments
    REPLY_TRANSIT, ///< reply (or ack tail) on the wire back
    RETRY_WAIT,    ///< backoff between a NACK and the retried request
    RECOVERY,      ///< waiting out a loss-recovery timeout (retransmit)
    ADMIT,         ///< open-loop admission wait before the op issued
    NUM_PHASES
};

constexpr int NUM_TXN_PHASES = static_cast<int>(TxnPhase::NUM_PHASES);

const char *toString(TxnPhase ph);

/**
 * Aggregates completed-transaction phase breakdowns: one LatencyStat
 * per (op, phase) and per op total, plus all-op aggregates and
 * distributions of retries, fan-out degree, and observed chain length.
 * Storage is fixed arrays so registered pointers stay stable.
 */
class PhaseAttribution
{
  public:
    /**
     * Fold one completed transaction: @p phase_sum holds the cycles
     * attributed to each phase (summing to @p total).
     */
    void sample(AtomicOp op, const Tick phase_sum[NUM_TXN_PHASES],
                Tick total, int retries, int fanout, int chain);

    std::uint64_t completed() const { return _completed; }

    const LatencyStat *
    phaseStat(int op, int ph) const
    {
        return &_phase[op][ph];
    }

    const LatencyStat *totalStat(int op) const { return &_total[op]; }
    const LatencyStat *allPhaseStat(int ph) const { return &_all_phase[ph]; }
    const LatencyStat *allTotalStat() const { return &_all_total; }
    const Histogram *retriesHist() const { return &_retries; }
    const Histogram *fanoutHist() const { return &_fanout; }
    const Histogram *chainHist() const { return &_chain; }

    /**
     * Per-op breakdown as one JSON object: for every op with samples,
     * {"count", "total": {mean,p50,p95,p99,max}, "phases": {...}}.
     * Deterministic (op-enum order, phase-enum order).
     */
    std::string phasesJson() const;

    /** @name Tail-vs-median conditional attribution.
     *
     * When a tail capacity is configured, sample() also keeps one
     * compact record per transaction (total + per-phase cycles), so a
     * report can answer "which phase dominates above the p90/p99 cut"
     * exactly: a TailCut aggregates only the transactions at or above
     * the nearest-rank percentile of the recorded totals, and because
     * each record's phases sum to its total, the conditional per-phase
     * sums add up exactly to the tail transactions' end-to-end cycles.
     * @{ */

    /** Compact per-transaction copy kept for tail cuts. */
    struct TailRecord
    {
        Tick total = 0;
        Tick phase[NUM_TXN_PHASES] = {};
        AtomicOp op{};
    };

    /** Conditional aggregates over transactions at/above a cut. */
    struct TailCut
    {
        Tick threshold = 0;      ///< nearest-rank percentile of totals
        std::uint64_t count = 0; ///< transactions at/above threshold
        LatencyStat total;
        LatencyStat phase[NUM_TXN_PHASES];
    };

    /** Bound the per-transaction tail records; 0 disables them. */
    void configureTail(std::size_t capacity);

    /** Build the conditional aggregates for quantile @p q (e.g. 0.99). */
    TailCut tailCut(double q) const;

    std::uint64_t tailRecords() const { return _tail.size(); }
    std::uint64_t tailDropped() const { return _tail_dropped; }

    /**
     * Tail report as one JSON object:
     * {"records","dropped","p90":{threshold,count,total,phases},"p99":...}.
     */
    std::string tailJson() const;

    /** @} */

  private:
    LatencyStat _phase[NUM_ATOMIC_OPS][NUM_TXN_PHASES];
    LatencyStat _total[NUM_ATOMIC_OPS];
    LatencyStat _all_phase[NUM_TXN_PHASES];
    LatencyStat _all_total;
    Histogram _retries;
    Histogram _fanout;
    Histogram _chain;
    std::uint64_t _completed = 0;
    std::vector<TailRecord> _tail;
    std::size_t _tail_cap = 0;
    std::uint64_t _tail_dropped = 0;
};

} // namespace dsm

#endif // DSM_STATS_ATTRIBUTION_HH
