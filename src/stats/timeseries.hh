/**
 * @file
 * Time-resolved telemetry: windowed time-series sampling of registered
 * counters, driven by the simulated clock.
 *
 * A TimeSeries holds a set of named series. Each DELTA series snapshots
 * the change of a monotonically increasing counter per sampling window
 * (so the values of all windows sum exactly to the end-of-run
 * aggregate); each GAUGE series records an instantaneous reading at
 * every window boundary. Samples land in a bounded ring per series:
 * when a run outlives the ring, the oldest delta windows are folded
 * into a per-series evicted sum, preserving the sum-to-aggregate
 * invariant that the tests assert.
 *
 * The sampler is driven by EventQueue::setSampler(): the hook fires at
 * every multiple of the configured window, immediately before the first
 * event at or after that boundary executes, so a sample at boundary T
 * observes exactly the activity of [0, T). finalize() captures the
 * residual partial window after the run drains.
 */

#ifndef DSM_STATS_TIMESERIES_HH
#define DSM_STATS_TIMESERIES_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/types.hh"

namespace dsm {

class JsonWriter;

class TimeSeries
{
  public:
    using Getter = std::function<std::uint64_t()>;

    /**
     * Apply a TelemetryConfig; must precede registration/sampling. The
     * owner configures, samples, finalizes and rebaselines the sampler
     * only while telemetry.enabled holds.
     */
    void configure(const TelemetryConfig &cfg);

    /**
     * Register a series over a monotonically increasing counter; each
     * window records the counter's change within that window.
     */
    void addDelta(std::string name, Getter get);

    /** Register an instantaneous-reading series. */
    void addGauge(std::string name, Getter get);

    /** Record one sample per series at window boundary @p boundary. */
    void sample(Tick boundary);

    /**
     * Capture the residual partial window at end of run (tick @p now).
     * Idempotent; after this, retained + evicted delta sums equal the
     * underlying aggregate counters exactly.
     */
    void finalize(Tick now);

    /**
     * Re-baseline every delta series against the counters' current
     * values and drop all recorded windows (System::clearStats support:
     * the measured region starts afresh, like the per-node counters).
     */
    void rebaseline();

    /** @name Introspection (stats registry and tests). @{ */

    /** Windows sampled so far, including evicted ones. */
    std::uint64_t windowsSampled() const { return _windows_sampled; }

    /** Windows evicted from the rings (identical across series). */
    std::uint64_t windowsEvicted() const { return _windows_evicted; }

    std::uint64_t numSeries() const
    {
        return static_cast<std::uint64_t>(_series.size());
    }

    /** Sum of a delta series: retained windows + evicted sum. */
    std::uint64_t seriesTotal(const std::string &name) const;

    /** Retained values of a series, oldest first (empty if unknown). */
    std::vector<std::uint64_t> seriesValues(const std::string &name) const;

    /** @} */

    /**
     * Render as one JSON object: window size, window count, eviction
     * accounting, and every series in registration order.
     */
    void writeJson(JsonWriter &w) const;

  private:
    struct Series
    {
        std::string name;
        Getter get;
        bool gauge = false;
        std::uint64_t last = 0;        ///< delta baseline
        std::uint64_t evicted_sum = 0; ///< deltas folded out of the ring
        std::vector<std::uint64_t> ring;
        std::size_t head = 0;          ///< next write slot
        std::size_t count = 0;         ///< retained samples
    };

    void push(Series &s, std::uint64_t v);
    void sampleAll();
    const Series *findSeries(const std::string &name) const;

    bool _finalized = false;
    Tick _window = 0;
    std::size_t _cap = 0;
    std::uint64_t _windows_sampled = 0;
    std::uint64_t _windows_evicted = 0;
    Tick _last_boundary = 0;  ///< highest boundary sampled
    Tick _final_tick = 0;     ///< finalize() time (0 = not finalized)
    std::vector<Series> _series;
};

} // namespace dsm

#endif // DSM_STATS_TIMESERIES_HH
