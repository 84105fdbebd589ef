/**
 * @file
 * Bounded per-node admission queues for open-loop arrivals.
 *
 * The open-loop workload engine (workloads/openloop.hh) offers
 * operations to these queues from a seeded arrival process; each node's
 * processor serves its queue in FIFO order. The queues live in System
 * and are allocated only when OpenLoopConfig::enabled holds, the gate
 * every hook tests, so a closed-loop run pays nothing and its stats
 * JSON keeps its exact shape. They carry the serving-side counters:
 * offered/admitted/shed arrivals, queue depth seen by each arrival,
 * admission wait, and sojourn time (admission wait + service) against
 * the configured SLO.
 */

#ifndef DSM_CPU_ADMISSION_HH
#define DSM_CPU_ADMISSION_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/config.hh"
#include "sim/types.hh"
#include "stats/stat_set.hh"

namespace dsm {

/** Serving-side statistics of the open-loop admission layer. */
struct OpenLoopStats
{
    std::uint64_t offered = 0;        ///< arrivals generated
    std::uint64_t admitted = 0;       ///< arrivals enqueued
    std::uint64_t rejected = 0;       ///< arrivals shed (queue full)
    /**
     * Arrivals shed at the edge because the node was credit-throttled
     * by its home (serve.backpressure); a subset of rejected. Shedding
     * here converts queueing delay the home would impose anyway into
     * an explicit early rejection — graceful degradation instead of
     * unbounded sojourn growth.
     */
    std::uint64_t rejected_throttled = 0;
    std::uint64_t completed = 0;      ///< admitted ops fully served
    std::uint64_t slo_violations = 0; ///< sojourn > slo_cycles
    /** Queue depth observed by each arrival (before it joins). */
    Histogram depth_on_arrival;
    /** Dequeue tick minus arrival tick. */
    LatencyStat admission_wait;
    /** Completion tick minus arrival tick (admission wait + service). */
    LatencyStat sojourn;
};

/** Bounded FIFO admission queues, one per node, plus their stats. */
class AdmissionQueues
{
  public:
    void configure(const OpenLoopConfig &cfg, int num_procs);

    /**
     * Offer one arrival at @p now to node @p n. Samples the observed
     * depth and either admits (true) or sheds it (false, queue full).
     */
    bool offer(NodeId n, Tick now);

    bool empty(NodeId n) const
    {
        return _q[static_cast<std::size_t>(n)].empty();
    }

    std::size_t depth(NodeId n) const
    {
        return _q[static_cast<std::size_t>(n)].size();
    }

    /** Dequeue the oldest arrival of node @p n; samples admission wait. */
    Tick pop(NodeId n, Tick now);

    /**
     * Credit backpressure from node @p n's controller: shed arrivals to
     * @p n (counting them rejected_throttled) until tick @p until.
     */
    void setThrottledUntil(NodeId n, Tick until);

    /** An op admitted at @p arrival finished at @p now. */
    void complete(Tick arrival, Tick now);

    const OpenLoopStats &stats() const { return _st; }

  private:
    OpenLoopConfig _cfg;
    std::vector<std::deque<Tick>> _q;
    /** Per-node edge-shed horizon (serve.backpressure; 0 = open). */
    std::vector<Tick> _throttle_until;
    OpenLoopStats _st;
};

} // namespace dsm

#endif // DSM_CPU_ADMISSION_HH
