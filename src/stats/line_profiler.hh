/**
 * @file
 * Per-cache-line contention hotspot profiles.
 *
 * The protocol's home-side hooks attribute traffic to the block it
 * targets: requests serviced at the home (with the memory service
 * cycles they consumed), NACKs, exclusive-ownership migrations, sharer
 * churn, and invalidations sent. ranked() orders lines by a combined
 * contention score, which is how the hot-line table of the telemetry
 * export identifies e.g. the lock-free counter's line as the #1 hotspot
 * under contention.
 *
 * Gating follows the fault/recovery discipline: every hook tests
 * TelemetryConfig::enabled before calling in, so with telemetry off a
 * hook costs a single branch and the profiler stays empty.
 */

#ifndef DSM_STATS_LINE_PROFILER_HH
#define DSM_STATS_LINE_PROFILER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace dsm {

/** Traffic attributed to one cache line (block). */
struct LineProfile
{
    std::uint64_t requests = 0;       ///< home-serviced messages
    std::uint64_t service_cycles = 0; ///< home memory cycles (queue+service)
    std::uint64_t nacks = 0;          ///< NACKs sent for this line
    std::uint64_t migrations = 0;     ///< exclusive owner changed hands
    std::uint64_t sharer_joins = 0;   ///< sharer-set additions (churn)
    std::uint64_t invalidations = 0;  ///< INVs sent for this line

    /** Combined contention score used for ranking. */
    std::uint64_t
    score() const
    {
        return requests + nacks + migrations + sharer_joins +
               invalidations;
    }

    /**
     * Last granted exclusive owner (migration tracking state, not a
     * statistic; a release and regrant to the same node is not a
     * migration).
     */
    NodeId last_owner = INVALID_NODE;
};

class LineProfiler
{
  public:
    /** @name Protocol hooks (callers gate on telemetry.enabled). @{ */

    void
    noteService(Addr block, Tick service_cycles)
    {
        LineProfile &p = _lines[block];
        ++p.requests;
        p.service_cycles += static_cast<std::uint64_t>(service_cycles);
    }

    void noteNack(Addr block) { ++_lines[block].nacks; }

    /** Exclusive ownership granted to @p owner; counts hand-offs. */
    void
    noteOwner(Addr block, NodeId owner)
    {
        LineProfile &p = _lines[block];
        if (p.last_owner != owner) {
            if (p.last_owner != INVALID_NODE)
                ++p.migrations;
            p.last_owner = owner;
        }
    }

    void noteSharerJoin(Addr block) { ++_lines[block].sharer_joins; }

    void noteInvalidation(Addr block) { ++_lines[block].invalidations; }

    /** @} */

    std::uint64_t
    linesTracked() const
    {
        return static_cast<std::uint64_t>(_lines.size());
    }

    /** Profile of one line (zeros if never touched). */
    LineProfile profile(Addr block) const;

    /** One row of the ranked hot-line table. */
    struct Ranked
    {
        Addr addr = 0;
        LineProfile prof;
    };

    /**
     * The @p top hottest lines, by score descending (address ascending
     * on ties, so the ranking is deterministic).
     */
    std::vector<Ranked> ranked(std::size_t top) const;

    /** Drop all profiles (clearStats support). */
    void clear() { _lines.clear(); }

  private:
    std::unordered_map<Addr, LineProfile> _lines;
};

} // namespace dsm

#endif // DSM_STATS_LINE_PROFILER_HH
