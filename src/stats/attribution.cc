#include "stats/attribution.hh"

#include <algorithm>
#include <cmath>

#include "sim/json.hh"

namespace dsm {

const char *
toString(TxnPhase ph)
{
    switch (ph) {
    case TxnPhase::CACHE:
        return "cache";
    case TxnPhase::REQ_TRANSIT:
        return "req_transit";
    case TxnPhase::DIR_QUEUE:
        return "dir_queue";
    case TxnPhase::DIR_SERVICE:
        return "dir_service";
    case TxnPhase::OWNER:
        return "owner";
    case TxnPhase::FANOUT:
        return "fanout";
    case TxnPhase::REPLY_TRANSIT:
        return "reply_transit";
    case TxnPhase::RETRY_WAIT:
        return "retry_wait";
    case TxnPhase::RECOVERY:
        return "recovery";
    case TxnPhase::ADMIT:
        return "admit";
    case TxnPhase::NUM_PHASES:
        break;
    }
    return "?";
}

void
PhaseAttribution::sample(AtomicOp op, const Tick phase_sum[NUM_TXN_PHASES],
                         Tick total, int retries, int fanout, int chain)
{
    int i = static_cast<int>(op);
    for (int ph = 0; ph < NUM_TXN_PHASES; ++ph) {
        // Zero-cycle phases are skipped so per-phase counts reflect
        // how many transactions actually exercised the phase.
        if (phase_sum[ph] == 0)
            continue;
        _phase[i][ph].sample(phase_sum[ph]);
        _all_phase[ph].sample(phase_sum[ph]);
    }
    _total[i].sample(total);
    _all_total.sample(total);
    _retries.add(static_cast<std::uint64_t>(retries));
    _fanout.add(static_cast<std::uint64_t>(fanout));
    _chain.add(static_cast<std::uint64_t>(chain));
    ++_completed;

    if (_tail_cap != 0) {
        if (_tail.size() < _tail_cap) {
            TailRecord r;
            r.total = total;
            r.op = op;
            for (int ph = 0; ph < NUM_TXN_PHASES; ++ph)
                r.phase[ph] = phase_sum[ph];
            _tail.push_back(r);
        } else {
            ++_tail_dropped;
        }
    }
}

void
PhaseAttribution::configureTail(std::size_t capacity)
{
    _tail_cap = capacity;
    _tail.clear();
    _tail_dropped = 0;
}

PhaseAttribution::TailCut
PhaseAttribution::tailCut(double q) const
{
    TailCut cut;
    if (_tail.empty())
        return cut;
    std::vector<Tick> totals;
    totals.reserve(_tail.size());
    for (const TailRecord &r : _tail)
        totals.push_back(r.total);
    std::sort(totals.begin(), totals.end());
    // Nearest-rank threshold, same convention as Histogram::percentile.
    std::size_t n = totals.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    rank = std::min(std::max<std::size_t>(rank, 1), n);
    cut.threshold = totals[rank - 1];
    for (const TailRecord &r : _tail) {
        if (r.total < cut.threshold)
            continue;
        ++cut.count;
        cut.total.sample(r.total);
        for (int ph = 0; ph < NUM_TXN_PHASES; ++ph) {
            if (r.phase[ph] != 0)
                cut.phase[ph].sample(r.phase[ph]);
        }
    }
    return cut;
}

namespace {

void
writeStat(JsonWriter &w, const LatencyStat &s)
{
    w.beginObject();
    w.key("count");
    w.value(s.count);
    w.key("mean");
    w.value(s.mean());
    w.key("p50");
    w.value(static_cast<std::uint64_t>(s.p50()));
    w.key("p95");
    w.value(static_cast<std::uint64_t>(s.p95()));
    w.key("p99");
    w.value(static_cast<std::uint64_t>(s.p99()));
    w.key("p999");
    w.value(static_cast<std::uint64_t>(s.p999()));
    w.key("max");
    w.value(static_cast<std::uint64_t>(s.max));
    w.endObject();
}

} // namespace

std::string
PhaseAttribution::phasesJson() const
{
    JsonWriter w;
    w.beginObject();
    for (int op = 0; op < NUM_ATOMIC_OPS; ++op) {
        if (_total[op].count == 0)
            continue;
        w.key(toString(static_cast<AtomicOp>(op)));
        w.beginObject();
        w.key("total");
        writeStat(w, _total[op]);
        w.key("phases");
        w.beginObject();
        for (int ph = 0; ph < NUM_TXN_PHASES; ++ph) {
            if (_phase[op][ph].count == 0)
                continue;
            w.key(toString(static_cast<TxnPhase>(ph)));
            writeStat(w, _phase[op][ph]);
        }
        w.endObject();
        w.endObject();
    }
    w.endObject();
    return w.str();
}

std::string
PhaseAttribution::tailJson() const
{
    JsonWriter w;
    w.beginObject();
    w.kv("records", static_cast<std::uint64_t>(_tail.size()));
    w.kv("dropped", _tail_dropped);
    struct { const char *name; double q; } cuts[] = {
        { "p90", 0.90 },
        { "p99", 0.99 },
    };
    for (const auto &c : cuts) {
        TailCut cut = tailCut(c.q);
        w.key(c.name);
        w.beginObject();
        w.kv("threshold", static_cast<std::uint64_t>(cut.threshold));
        w.kv("count", cut.count);
        w.key("total");
        writeStat(w, cut.total);
        w.key("phases");
        w.beginObject();
        for (int ph = 0; ph < NUM_TXN_PHASES; ++ph) {
            if (cut.phase[ph].count == 0)
                continue;
            w.key(toString(static_cast<TxnPhase>(ph)));
            writeStat(w, cut.phase[ph]);
        }
        w.endObject();
        w.endObject();
    }
    w.endObject();
    return w.str();
}

} // namespace dsm
