#include "sim/config.hh"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <variant>

#include "sim/logging.hh"

namespace dsm {

const char *
toString(SyncPolicy p)
{
    switch (p) {
      case SyncPolicy::INV: return "INV";
      case SyncPolicy::UPD: return "UPD";
      case SyncPolicy::UNC: return "UNC";
    }
    return "?";
}

const char *
toString(CasVariant v)
{
    switch (v) {
      case CasVariant::PLAIN: return "INV";
      case CasVariant::DENY: return "INVd";
      case CasVariant::SHARE: return "INVs";
    }
    return "?";
}

const char *
toString(Primitive p)
{
    switch (p) {
      case Primitive::FAP: return "FAP";
      case Primitive::LLSC: return "LLSC";
      case Primitive::CAS: return "CAS";
    }
    return "?";
}

std::string
SyncConfig::label() const
{
    std::string s = toString(policy);
    if (policy == SyncPolicy::INV && cas_variant != CasVariant::PLAIN)
        s = toString(cas_variant);
    if (use_load_exclusive)
        s += "+lx";
    if (use_drop_copy)
        s += "+dc";
    return s;
}

namespace {

/** std::from_chars over all of @p s. */
template <typename T>
bool
fromChars(std::string_view s, T &out)
{
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, out);
    return ec == std::errc() && ptr == end;
}

constexpr double NO_BOUND = std::numeric_limits<double>::infinity();

/**
 * One key of a config group's spec string. A group's rows are the only
 * description of its spec format: parse(), summary() and the
 * single-field range checks of Config::validate() all read them.
 */
template <typename G>
struct SpecRow
{
    const char *key;
    /** The member the key sets, in the member's own type. */
    std::variant<bool G::*, int G::*, std::uint64_t G::*, double G::*>
        member;
    /** The member's name in validate() messages when it is not the key. */
    const char *name = nullptr;
    /** Inclusive range validate() enforces, and why when not obvious. */
    double lo = -NO_BOUND;
    double hi = NO_BOUND;
    const char *why = nullptr;
    /** summary() shows the row only when this holds (nullptr: always). */
    bool (*shown)(const G &) = nullptr;
    /** Set by the value "auto", which summary() then prints. */
    bool G::*auto_flag = nullptr;
};

template <typename G>
struct SpecTable
{
    /** Names the group in parse errors: "unknown <noun> spec key". */
    const char *noun;
    /** Prefixes the member names in validate() messages. */
    const char *prefix;
    /** The spec that "1", "on" and "default" stand for. */
    const char *preset;
    std::span<const SpecRow<G>> rows;
};

/** The table of spec group G (specialized for each group below). */
template <typename G>
constexpr SpecTable<G> TABLE = {};

using FC = FaultConfig;
using OC = OpenLoopConfig;
using SC = ServeConfig;

const char *const HORIZON_WHY = "the event-queue jitter horizon";

constexpr auto lossShown = [](const FC &f) {
    return f.lossEnabled() || f.recoveryEnabled();
};
constexpr auto chaosShown = [](const FC &f) { return f.chaosEnabled(); };

// Row order is summary() order. The loss and chaos keys appear in a
// summary only when armed, so summaries of older specs stay unchanged.
constexpr SpecRow<FC> FAULT_ROWS[] = {
    {.key = "seed", .member = &FC::seed},
    {.key = "jitter_prob", .member = &FC::msg_jitter_prob,
     .name = "msg_jitter_prob", .lo = 0, .hi = 1},
    {.key = "jitter_max", .member = &FC::msg_jitter_max,
     .name = "msg_jitter_max", .hi = FAULT_JITTER_HORIZON,
     .why = HORIZON_WHY},
    {.key = "resv_drop_prob", .member = &FC::resv_drop_prob, .lo = 0,
     .hi = 1},
    {.key = "evict_prob", .member = &FC::evict_prob, .lo = 0, .hi = 1},
    {.key = "nack_prob", .member = &FC::nack_prob, .lo = 0, .hi = 1},
    {.key = "max_extra_nacks", .member = &FC::max_extra_nacks, .lo = 0},
    {.key = "drop_prob", .member = &FC::msg_drop_prob,
     .name = "msg_drop_prob", .lo = 0, .hi = 1, .shown = lossShown},
    {.key = "flaky_links", .member = &FC::flaky_links, .lo = 0,
     .shown = lossShown},
    {.key = "flaky_window", .member = &FC::flaky_window,
     .shown = lossShown},
    {.key = "flaky_duration", .member = &FC::flaky_duration,
     .shown = lossShown},
    {.key = "flaky_drop_prob", .member = &FC::flaky_drop_prob, .lo = 0,
     .hi = 1, .shown = lossShown},
    {.key = "req_timeout", .member = &FC::req_timeout, .shown = lossShown},
    {.key = "quarantine_k", .member = &FC::quarantine_k, .lo = 0,
     .shown = lossShown},
    {.key = "quarantine_window", .member = &FC::quarantine_window,
     .shown = lossShown},
    {.key = "reorder_prob", .member = &FC::reorder_prob, .lo = 0, .hi = 1,
     .shown = chaosShown},
    {.key = "reorder_max", .member = &FC::reorder_max,
     .hi = FAULT_JITTER_HORIZON, .why = HORIZON_WHY, .shown = chaosShown},
    {.key = "dup_prob", .member = &FC::dup_prob, .lo = 0, .hi = 1,
     .shown = chaosShown},
    {.key = "dup_delay", .member = &FC::dup_delay,
     .hi = FAULT_JITTER_HORIZON, .why = HORIZON_WHY, .shown = chaosShown},
    {.key = "corrupt_prob", .member = &FC::corrupt_prob, .lo = 0, .hi = 1,
     .shown = chaosShown},
    {.key = "resv_max_age", .member = &FC::resv_max_age,
     .shown = [](const FC &f) { return f.resv_max_age != 0; }},
};

// The preset is the standard campaign mix: frequent-but-bounded jitter
// plus occasional reservation drops, evictions and NACK storms.
template <>
constexpr SpecTable<FC> TABLE<FC> = {
    "fault", "faults",
    "jitter_prob=0.2,jitter_max=64,resv_drop_prob=0.05,evict_prob=0.02,"
    "nack_prob=0.1,max_extra_nacks=4",
    FAULT_ROWS};

constexpr SpecRow<OC> OPENLOOP_ROWS[] = {
    // The open lower bound (rate > 0) is checked by Config::validate().
    {.key = "rate", .member = &OC::rate_ppc, .name = "rate_ppc", .lo = 0,
     .hi = 1},
    {.key = "burst", .member = &OC::burst, .lo = 1, .hi = 4096},
    {.key = "queue_cap", .member = &OC::queue_cap, .lo = 1,
     .why = "a node needs at least one admission slot"},
    {.key = "slo_cycles", .member = &OC::slo_cycles},
    {.key = "ops_per_proc", .member = &OC::ops_per_proc, .lo = 1},
};

// The preset is a mid-load default: well below saturation for every
// impl at the 16-proc sweep shape, so smoke runs finish quickly.
template <>
constexpr SpecTable<OC> TABLE<OC> = {"openloop", "openloop", "rate=0.001",
                                     OPENLOOP_ROWS};

constexpr SpecRow<SC> SERVE_ROWS[] = {
    {.key = "combining", .member = &SC::combining},
    {.key = "combine_limit", .member = &SC::combine_limit, .lo = 2,
     .why = "a batch of one is not combining"},
    {.key = "backpressure", .member = &SC::backpressure},
    {.key = "credit_threshold", .member = &SC::credit_threshold, .lo = 1,
     .auto_flag = &SC::credit_auto},
    {.key = "priority", .member = &SC::priority},
    {.key = "age_limit", .member = &SC::age_limit},
    {.key = "nack_backoff", .member = &SC::nack_backoff},
    {.key = "backoff_cap", .member = &SC::backoff_cap},
};

template <>
constexpr SpecTable<SC> TABLE<SC> = {"serve", "serve", "", SERVE_ROWS};

/** Parse all of @p s into @p v; "" or what @p s is not. */
template <typename T>
std::string
parseValue(std::string_view s, T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        if (s != "0" && s != "1")
            return "is not 0 or 1";
        v = s == "1";
        return "";
    } else if constexpr (std::is_floating_point_v<T>) {
        return fromChars(s, v) ? "" : "is not a number";
    } else {
        if (fromChars(s, v))
            return "";
        return "is not a whole number in [" +
               std::to_string(std::numeric_limits<T>::min()) + ", " +
               std::to_string(std::numeric_limits<T>::max()) + "]";
    }
}

/** The row's member of @p cfg as summary() and validate() print it. */
template <typename G>
std::string
formatMember(const SpecRow<G> &row, const G &cfg)
{
    return std::visit(
        [&](auto m) {
            using T = std::remove_cvref_t<decltype(cfg.*m)>;
            if constexpr (std::is_floating_point_v<T>)
                return csprintf("%g", cfg.*m);
            else
                return std::to_string(cfg.*m); // bools print 0 or 1
        },
        row.member);
}

/** The first row whose value is outside its range, as a message. */
template <typename G>
std::string
checkRanges(const G &cfg)
{
    for (const SpecRow<G> &row : TABLE<G>.rows) {
        double v = std::visit(
            [&](auto m) { return static_cast<double>(cfg.*m); },
            row.member);
        // Written so that NaN fails.
        if (v >= row.lo && v <= row.hi)
            continue;
        std::string range =
            row.hi == NO_BOUND ? csprintf(">= %.15g", row.lo)
            : row.lo == -NO_BOUND
                ? csprintf("<= %.15g", row.hi)
                : csprintf("in [%.15g, %.15g]", row.lo, row.hi);
        if (row.why != nullptr)
            range += csprintf(" (%s)", row.why);
        return csprintf("%s.%s must be %s, got %s", TABLE<G>.prefix,
                        row.name != nullptr ? row.name : row.key,
                        range.c_str(), formatMember(row, cfg).c_str());
    }
    return "";
}

} // anonymous namespace

template <typename T>
T
parsePositive(const char *s, const char *what)
{
    T v = 0;
    if (!fromChars(s, v) || v < 1)
        dsm_fatal("%s, got '%s'", what, s);
    return v;
}

template int parsePositive(const char *, const char *);
template std::uint64_t parsePositive(const char *, const char *);

bool
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

template <typename G>
std::string
SpecGroup<G>::parse(const std::string &spec)
{
    const SpecTable<G> &table = TABLE<G>;
    G cfg;
    if (spec == "0") {
        static_cast<G &>(*this) = cfg;
        return "";
    }
    std::string_view rest = spec;
    if (spec == "1" || spec == "on" || spec == "default")
        rest = table.preset;
    cfg.enabled = true;
    while (!rest.empty()) {
        std::string item(rest.substr(0, rest.find(',')));
        rest.remove_prefix(std::min(rest.size(), item.size() + 1));
        if (item.empty())
            continue;
        std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            return csprintf("%s spec item '%s' is not key=value",
                            table.noun, item.c_str());
        std::string key = item.substr(0, eq);
        std::string val = item.substr(eq + 1);
        auto row = std::ranges::find(table.rows, key, &SpecRow<G>::key);
        if (row == table.rows.end())
            return csprintf("unknown %s spec key '%s'", table.noun,
                            key.c_str());
        std::string err;
        if (row->auto_flag != nullptr && val == "auto")
            cfg.*row->auto_flag = true;
        else
            err = std::visit(
                [&](auto m) { return parseValue(val, cfg.*m); },
                row->member);
        if (!err.empty())
            return csprintf("%s spec value '%s' for '%s' %s", table.noun,
                            val.c_str(), key.c_str(), err.c_str());
    }
    static_cast<G &>(*this) = cfg;
    return "";
}

template <typename G>
std::string
SpecGroup<G>::summary() const
{
    const G &cfg = static_cast<const G &>(*this);
    std::string s;
    for (const SpecRow<G> &row : TABLE<G>.rows) {
        if (row.shown != nullptr && !row.shown(cfg))
            continue;
        bool is_auto = row.auto_flag != nullptr && cfg.*row.auto_flag;
        s += (s.empty() ? "" : ",") + std::string(row.key) + "=" +
             (is_auto ? "auto" : formatMember(row, cfg));
    }
    return s;
}

template struct SpecGroup<FaultConfig>;
template struct SpecGroup<OpenLoopConfig>;
template struct SpecGroup<ServeConfig>;

FaultConfig
faultConfigFromEnv()
{
    FaultConfig fc;
    const char *spec = std::getenv("DSM_FAULTS");
    if (spec == nullptr || *spec == '\0')
        return fc;
    std::string err = fc.parse(spec);
    if (!err.empty())
        dsm_fatal("DSM_FAULTS: %s", err.c_str());
    return fc;
}

std::string
Config::validate() const
{
    const MachineConfig &m = machine;
    if (m.num_procs < 1 || m.num_procs > 64)
        return csprintf("num_procs must be in [1, 64], got %d",
                        m.num_procs);
    if (m.mesh_x < 1 || m.mesh_y < 1)
        return csprintf("mesh dimensions must be positive, got %dx%d",
                        m.mesh_x, m.mesh_y);
    if (m.mesh_x * m.mesh_y != m.num_procs)
        return csprintf("mesh %dx%d does not cover %d procs",
                        m.mesh_x, m.mesh_y, m.num_procs);
    if (m.cache_sets == 0 || (m.cache_sets & (m.cache_sets - 1)) != 0)
        return csprintf("cache_sets must be a nonzero power of two, "
                        "got %u", m.cache_sets);
    if (m.cache_ways == 0)
        return "cache_ways must be nonzero";
    if (m.cache_hit_latency == 0)
        return "cache_hit_latency must be nonzero";
    if (m.mem_service_time == 0)
        return "mem_service_time must be nonzero";
    // hop_latency == 0 is allowed: it models contention-free routing
    // and is exercised by the timing-parameter sweeps.
    if (m.flit_latency == 0)
        return "flit_latency must be nonzero";
    if (m.retry_delay == 0)
        return "retry_delay must be nonzero";
    if (m.max_memory_reservations < 0)
        return csprintf("max_memory_reservations must be >= 0, got %d",
                        m.max_memory_reservations);
    if (trace.enabled && trace.capacity == 0)
        return "trace.capacity must be nonzero when tracing is enabled";
    if (txn_trace.enabled && txn_trace.capacity == 0)
        return "txn_trace.capacity must be nonzero when transaction "
               "tracing is enabled";
    if (telemetry.enabled && telemetry.window == 0)
        return "telemetry.window must be nonzero when telemetry is "
               "enabled";
    if (telemetry.enabled && telemetry.max_windows == 0)
        return "telemetry.max_windows must be nonzero when telemetry "
               "is enabled";

    // Each spec row's own range; only the checks that span fields, or
    // that apply only under a switch, are written out below. Open-loop
    // and serving knobs are checked only when their group is enabled,
    // fault knobs always, so a typo in a sweep config fails fast rather
    // than when a campaign later flips `enabled` on.
    const OpenLoopConfig &ol = openloop;
    if (ol.enabled) {
        if (std::string err = checkRanges(ol); !err.empty())
            return err;
        if (!(ol.rate_ppc > 0.0))
            return csprintf("openloop.rate_ppc must be in (0, 1] "
                            "arrivals/cycle/proc when open-loop "
                            "arrivals are enabled, got %g", ol.rate_ppc);
    }

    const ServeConfig &sv = serve;
    if (sv.enabled) {
        if (std::string err = checkRanges(sv); !err.empty())
            return err;
        if (sv.priority && sv.age_limit == 0)
            return "serve.age_limit must be nonzero when "
                   "serve.priority is enabled (it is the starvation "
                   "bound, not an off switch)";
        if (sv.nack_backoff &&
            (sv.backoff_cap < 4 || sv.backoff_cap > 20))
            return csprintf("serve.backoff_cap must be in [4, 20] "
                            "(below 4 would weaken the built-in "
                            "backoff; above 20 overflows the shift), "
                            "got %d", sv.backoff_cap);
        if (sv.credit_auto && !sv.backpressure)
            return "serve.credit_threshold=auto requires "
                   "serve.backpressure (there is no threshold to adapt "
                   "otherwise)";
        if (sv.credit_auto && !telemetry.enabled)
            return "serve.credit_threshold=auto requires "
                   "telemetry.enabled (the adaptive threshold is "
                   "derived from the sampled queue-depth series)";
    }

    const FaultConfig &f = faults;
    if (std::string err = checkRanges(f); !err.empty())
        return err;
    if (f.enabled && f.msg_jitter_prob > 0.0 && f.msg_jitter_max == 0)
        return "faults.msg_jitter_max must be nonzero when "
               "faults.msg_jitter_prob > 0";
    if (f.flaky_links > 0 &&
        (f.flaky_window == 0 || f.flaky_duration == 0))
        return "faults.flaky_window and faults.flaky_duration must be "
               "nonzero when faults.flaky_links > 0";
    if (f.lossEnabled() && f.req_timeout == 0)
        return "faults.req_timeout must be nonzero when message loss "
               "(msg_drop_prob / flaky_links) is enabled; a lost "
               "message is unrecoverable without retransmission";
    if (f.quarantine_k > 0 && f.quarantine_window == 0)
        return "faults.quarantine_window must be nonzero when "
               "faults.quarantine_k > 0";
    if (f.enabled && f.reorder_prob > 0.0 && f.reorder_max == 0)
        return "faults.reorder_max must be nonzero when "
               "faults.reorder_prob > 0";
    if (f.enabled && f.dup_prob > 0.0 && f.dup_delay == 0)
        return "faults.dup_delay must be nonzero when "
               "faults.dup_prob > 0 (a replay needs a delay to race "
               "its original)";
    if (f.chaosEnabled() && f.req_timeout == 0)
        return "faults.req_timeout must be nonzero when a "
               "faulty-channel axis (reorder_prob / dup_prob / "
               "corrupt_prob) is enabled; the sequence guards and the "
               "corruption-as-loss path live in the recovery layer";

    const WatchdogConfig &w = watchdog;
    if (w.max_retries < 0)
        return csprintf("watchdog.max_retries must be >= 0, got %d",
                        w.max_retries);
    if (w.enabled && w.max_retries == 0 && w.max_txn_age == 0)
        return "watchdog enabled but both max_retries and max_txn_age "
               "are 0; set at least one bound";
    if (w.max_txn_age > 0 && w.scan_period == 0)
        return "watchdog.scan_period must be nonzero when max_txn_age "
               "is set";

    // The model checker enumerates every interleaving, so its bounds
    // are hard: a 4-node or 2-line exploration would not terminate in
    // any useful time, and a loss budget above 1 squares the already
    // exponential branching.
    const McConfig &mcc = mc;
    if (mcc.nodes < 2 || mcc.nodes > 3)
        return csprintf("mc.nodes must be 2 or 3 (exhaustive "
                        "exploration is exponential in nodes), got %d",
                        mcc.nodes);
    if (mcc.lines != 1)
        return csprintf("mc.lines must be exactly 1 (the explorer "
                        "models a single synchronization line), got %d",
                        mcc.lines);
    if (mcc.ops_per_proc < 1 || mcc.ops_per_proc > 4)
        return csprintf("mc.ops_per_proc must be in [1, 4], got %d",
                        mcc.ops_per_proc);
    if (mcc.loss_budget != 0 && mcc.loss_budget != 1)
        return csprintf("mc.loss_budget must be 0 or 1 (at most one "
                        "message loss per run is explored), got %d",
                        mcc.loss_budget);
    if (mcc.reorder_budget != 0 && mcc.reorder_budget != 1)
        return csprintf("mc.reorder_budget must be 0 or 1 (at most one "
                        "reordered delivery per run is explored), "
                        "got %d", mcc.reorder_budget);
    if (mcc.dup_budget != 0 && mcc.dup_budget != 1)
        return csprintf("mc.dup_budget must be 0 or 1 (at most one "
                        "duplicated delivery per run is explored), "
                        "got %d", mcc.dup_budget);
    if (mcc.max_states == 0)
        return "mc.max_states must be nonzero (it is the exploration "
               "fuse, not an off switch)";
    if (mcc.combining && mcc.primitive != Primitive::FAP)
        return csprintf("mc.combining requires mc.primitive FAP (only "
                        "fetch&add home requests commute), got %s",
                        toString(mcc.primitive));
    return "";
}

} // namespace dsm
