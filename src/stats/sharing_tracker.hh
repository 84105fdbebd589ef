/**
 * @file
 * Trackers for the paper's two sharing-pattern metrics (Section 4.2):
 *
 * - **Average write-run length**: the average number of consecutive
 *   writes (including atomic updates) by one processor to an atomically
 *   accessed shared location without intervening accesses (reads or
 *   writes) by any other processor.
 *
 * - **Contention histograms**: the number of processors contending to
 *   access an atomically accessed shared location at the beginning of
 *   each access.
 */

#ifndef DSM_STATS_SHARING_TRACKER_HH
#define DSM_STATS_SHARING_TRACKER_HH

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/types.hh"
#include "stats/histogram.hh"

namespace dsm {

/** Tracks sharing-pattern metrics across all sync locations. */
class SharingTracker
{
  public:
    /**
     * Record an access to sync location @p a by node @p n. A write wakes
     * the location's parked readers other than @p n.
     * @param is_write True for stores and atomic updates (a failed CAS
     *                 or SC counts as a read: it does not write).
     */
    void recordAccess(Addr a, NodeId n, bool is_write);

    /**
     * Register node @p n as a parked reader of sync location @p a: a
     * spin-wait whose reads are not recorded, because a repeated read
     * by one processor changes nothing here until another processor
     * writes the location. Such a write calls the wake function with
     * @p n, so its next read is recorded again.
     * @return true if @p n's next read would not be a no-op: another
     *         processor's write run is open on the location.
     */
    bool parkReader(Addr a, NodeId n);

    /** Drop @p n from the parked readers of @p a. */
    void unparkReader(Addr a, NodeId n);

    /** Set the function recordAccess() calls to wake a parked reader. */
    void
    setWake(std::function<void(NodeId)> wake)
    {
        _wake = std::move(wake);
    }

    /**
     * A processor began attempting an atomic access (e.g. issued the
     * primitive or entered an acquire loop) on location @p a. The
     * contention level sampled at the beginning of the access is the
     * number of processors concurrently in an attempt, including this
     * one.
     */
    void beginAttempt(Addr a, NodeId n);

    /** The attempt begun by beginAttempt() completed. */
    void endAttempt(Addr a, NodeId n);

    /**
     * Close all open write runs and fold them into the statistics;
     * call once at the end of the measured region.
     */
    void finalize();

    /** Distribution of completed write-run lengths. */
    const Histogram &writeRuns() const { return _write_runs; }

    /** Average write-run length (Section 4.2's headline number). */
    double averageWriteRun() const { return _write_runs.mean(); }

    /** Contention histogram (Figure 2). */
    const Histogram &contention() const { return _contention; }

    /** Forget everything recorded; between runs only (no open
     *  attempt, no parked reader). */
    void clear();

  private:
    struct LocState
    {
        NodeId run_writer = INVALID_NODE;
        std::uint64_t run_len = 0;
        int attempts_open = 0;
        std::vector<NodeId> parked;
    };

    std::unordered_map<Addr, LocState> _locs;
    Histogram _write_runs;
    Histogram _contention;
    std::function<void(NodeId)> _wake;
};

} // namespace dsm

#endif // DSM_STATS_SHARING_TRACKER_HH
