/**
 * @file
 * Protocol statistics and per-operation latency accounting.
 *
 * Since the observability rework every node carries its own SysStats
 * instance (System::stats(NodeId)); the aggregate view used by reports
 * and tests (System::stats()) is the merge of all per-node instances.
 */

#ifndef DSM_STATS_STAT_SET_HH
#define DSM_STATS_STAT_SET_HH

#include <cstdint>
#include <string>

#include "net/msg.hh"
#include "sim/types.hh"
#include "stats/histogram.hh"

namespace dsm {

/**
 * Sum/count/max accumulator for latencies, with a bucketed sample
 * distribution for percentile reporting.
 */
struct LatencyStat
{
    /** Samples are bucketed at this granularity for percentiles. */
    static constexpr unsigned BUCKET_SHIFT = 3;

    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    Tick max = 0;
    /** Sample distribution in (1 << BUCKET_SHIFT)-cycle buckets. */
    Histogram dist;

    void
    sample(Tick t)
    {
        ++count;
        sum += t;
        if (t > max)
            max = t;
        dist.add(t >> BUCKET_SHIFT);
    }

    double
    mean() const
    {
        return count == 0 ? 0.0
                          : static_cast<double>(sum) /
                                static_cast<double>(count);
    }

    /**
     * Approximate percentile: the upper edge of the bucketed
     * distribution's percentile bucket, capped at the true max (so the
     * error is at most one bucket width).
     */
    Tick
    percentile(double q) const
    {
        return count == 0 ? 0 : upperEdge(dist.percentile(q));
    }

    Tick p50() const { return percentile(0.50); }
    Tick p95() const { return percentile(0.95); }
    Tick p99() const { return percentile(0.99); }
    Tick p999() const { return percentile(0.999); }

    /** p50/p95/p99/p999 in one walk; each field equals the matching
     *  percentile(q). */
    Histogram::Percentiles
    percentiles() const
    {
        if (count == 0)
            return {};
        Histogram::Percentiles b = dist.percentiles();
        return {upperEdge(b.p50), upperEdge(b.p95), upperEdge(b.p99),
                upperEdge(b.p999)};
    }

    /** Upper edge of distribution bucket @p b, capped at the max. */
    Tick
    upperEdge(std::uint64_t b) const
    {
        Tick edge = ((b + 1) << BUCKET_SHIFT) - 1;
        return edge > max ? max : edge;
    }

    /** Fold another accumulator's samples into this one. */
    void
    merge(const LatencyStat &o)
    {
        count += o.count;
        sum += o.sum;
        if (o.max > max)
            max = o.max;
        dist.merge(o.dist);
    }
};

/** Number of distinct AtomicOp values (for per-op arrays). */
constexpr int NUM_ATOMIC_OPS = static_cast<int>(AtomicOp::SCS) + 1;

/** Protocol-level statistics for one node (or, merged, the system). */
struct SysStats
{
    std::uint64_t nacks = 0;            ///< NACK responses sent
    std::uint64_t retries = 0;          ///< requester retry attempts
    std::uint64_t invalidations = 0;    ///< Inv messages sent
    std::uint64_t updates = 0;          ///< Update messages sent
    std::uint64_t writebacks = 0;       ///< WbData messages sent
    std::uint64_t drop_notifies = 0;    ///< DropNotify messages sent
    std::uint64_t sc_failures = 0;      ///< failed store_conditionals
    std::uint64_t sc_local_failures = 0;///< SC failures with no traffic
    std::uint64_t sc_successes = 0;
    std::uint64_t cas_failures = 0;
    std::uint64_t cas_successes = 0;

    /** Per-operation completion counts and latencies. */
    std::uint64_t op_count[NUM_ATOMIC_OPS] = {};
    LatencyStat op_latency[NUM_ATOMIC_OPS];

    /** Longest serialized message chain per completed operation. */
    Histogram chain_length;

    void
    sampleOp(AtomicOp op, Tick latency, int chain)
    {
        int i = static_cast<int>(op);
        ++op_count[i];
        op_latency[i].sample(latency);
        chain_length.add(static_cast<std::uint64_t>(chain));
    }

    /** Fold another node's statistics into this instance. */
    void merge(const SysStats &o);

    /** Multi-line human-readable dump. */
    std::string report() const;
};

} // namespace dsm

#endif // DSM_STATS_STAT_SET_HH
