/**
 * @file
 * One harness for the fault and serving campaigns.
 *
 * A campaign crosses an implementation matrix (by default the Figure 6
 * application matrix) with level axes and, optionally, a seeds axis of
 * machine seeds BASE..BASE+K-1 (--seeds K; BASE from --seed, else
 * $DSM_SEED, else 1). A level is a named DSM_FAULTS / DSM_OPENLOOP /
 * DSM_SERVE spec; setting the env var replaces the axis with one
 * "custom" level holding its value. Points run on the p=16 4x4 machine
 * with the watchdog armed and pass the standard gates (see Gate); a
 * failing one writes WATCHDOG_<name>_<index>_<row>_<col>.txt next to
 * the BENCH report, with the repro line that rebuilds that one point.
 */

#ifndef DSM_EXP_CAMPAIGN_HH
#define DSM_EXP_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "sim/json.hh"

namespace dsm {

/** The Config section a level axis sets, and whose env var replaces it. */
enum class Knob { FAULTS, OPENLOOP, SERVE };

/** Where an axis's level label goes: the row label, the column, neither. */
enum class Place { ROW, COL, NONE };

/** One level of an axis. */
struct Level
{
    std::string label;
    /** In the env var's syntax; "0" leaves the section off. */
    std::string spec;
};

/**
 * The standard gates, which a point's workload applies exactly once:
 * gate(completed, correct) requires completion (else it records the
 * watchdog diagnosis or the blocked-transaction dump), then an exact
 * result, checkCoherence, checkFaultAccounting, checkServeAccounting and
 * zero transaction phase-sum mismatches. Returns whether all held.
 */
using Gate = std::function<bool(bool completed, bool correct)>;

/** A campaign's workload: run one point, gate it, fill its row. */
using CampaignFn =
    std::function<PointResult(System &, const ImplCase &, const Gate &)>;

/** Whether a point's Config arms the axis a total counts. */
using Armed = std::function<bool(const Config &)>;

/** Report rows in declaration order. */
using Rows = std::vector<JsonValue>;

/** Sum of the numeric field @p field over @p rows (absent counts 0). */
std::uint64_t sumField(const Rows &rows, const std::string &field);

class Campaign
{
  public:
    /**
     * Parses --jobs and --seed and consumes $DSM_SEED. @p argv must
     * outlive the campaign.
     */
    Campaign(std::string name, int argc, char **argv);

    /** Titles, meta, labels and the base Config are set directly. */
    Experiment &experiment() { return _ex; }

    /** Replace the implementation matrix. */
    Campaign &impls(std::vector<ImplCase> matrix);

    /**
     * Add a level axis; points vary the first-declared axis slowest.
     * dsm_fatal on a spec that does not parse.
     */
    Campaign &axis(Knob knob, Place place, std::vector<Level> levels);

    /** Add the seeds axis: --seeds K points, K defaulting to @p k. */
    Campaign &seeds(int k);

    /**
     * Report the sum of row field @p field as "<sum> <label>" in the
     * summary line. With @p armed, a zero sum fails the campaign if any
     * point's Config satisfies it: an axis the levels arm must fire.
     */
    Campaign &total(std::string field, std::string label,
                    Armed armed = {});

    /**
     * Campaign-level shape checks over all rows, returning error lines
     * ("" passes). Skipped when an env var replaced an axis.
     */
    Campaign &gates(std::function<std::string(const Rows &)> fn);

    Campaign &workload(CampaignFn fn);

    /** Run every point, report, and return the process exit code. */
    int run();

  private:
    struct Axis
    {
        Knob knob;
        Place place;
        std::vector<Level> levels;
        bool custom; ///< replaced by its env var
    };
    struct Total
    {
        std::string field;
        std::string label;
        Armed armed;
    };
    struct Failure
    {
        std::size_t index;
        std::string labels; ///< row and column
        std::string repro;
        std::string report;
    };

    void addPoint(const ImplCase &impl,
                  const std::vector<const Level *> &levels,
                  std::uint64_t seed, std::vector<Config> &cfgs);

    std::string _name;
    int _argc;
    char **_argv;
    Experiment _ex;
    int _jobs;
    std::uint64_t _seed;
    int _nseeds = 1;
    bool _seeds_axis = false;
    std::vector<ImplCase> _impls;
    std::vector<Axis> _axes;
    std::vector<Total> _totals;
    std::function<std::string(const Rows &)> _gates;
    CampaignFn _fn;

    std::mutex _fail_mutex;
    std::vector<Failure> _failures; ///< guarded by _fail_mutex
};

} // namespace dsm

#endif // DSM_EXP_CAMPAIGN_HH
