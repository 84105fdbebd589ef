#include "stats/timeseries.hh"

#include "sim/json.hh"
#include "sim/logging.hh"

namespace dsm {

void
TimeSeries::configure(const TelemetryConfig &cfg)
{
    dsm_assert(_series.empty(), "configure() after series registration");
    _window = cfg.window;
    _cap = cfg.max_windows;
}

void
TimeSeries::addDelta(std::string name, Getter get)
{
    dsm_assert(_cap > 0, "series registration before configure()");
    Series s;
    s.name = std::move(name);
    s.get = std::move(get);
    s.last = s.get();
    _series.push_back(std::move(s));
}

void
TimeSeries::addGauge(std::string name, Getter get)
{
    dsm_assert(_cap > 0, "series registration before configure()");
    Series s;
    s.name = std::move(name);
    s.get = std::move(get);
    s.gauge = true;
    _series.push_back(std::move(s));
}

void
TimeSeries::push(Series &s, std::uint64_t v)
{
    if (s.ring.size() < _cap) {
        s.ring.push_back(v);
        ++s.count;
        return;
    }
    // Ring full: fold the evicted window into the series' evicted sum
    // (gauges simply lose the reading) so delta sums stay exact.
    if (!s.gauge)
        s.evicted_sum += s.ring[s.head];
    s.ring[s.head] = v;
    s.head = (s.head + 1) % s.ring.size();
}

void
TimeSeries::sampleAll()
{
    bool evicting = !_series.empty() &&
                    _series.front().ring.size() == _cap;
    for (Series &s : _series) {
        std::uint64_t cur = s.get();
        if (s.gauge) {
            push(s, cur);
        } else {
            // Counters may be reset externally (clearStats without a
            // rebaseline is a caller bug, but never underflow here).
            std::uint64_t delta = cur >= s.last ? cur - s.last : 0;
            push(s, delta);
            s.last = cur;
        }
    }
    ++_windows_sampled;
    if (evicting)
        ++_windows_evicted;
}

void
TimeSeries::sample(Tick boundary)
{
    if (_finalized)
        return;
    _last_boundary = boundary;
    sampleAll();
}

void
TimeSeries::finalize(Tick now)
{
    if (_finalized)
        return;
    _finalized = true;
    _final_tick = now;
    // The residual partial window: whatever moved since the last
    // boundary. Recorded even when empty, so every counter increment
    // is in exactly one window.
    sampleAll();
}

void
TimeSeries::rebaseline()
{
    _finalized = false;
    _final_tick = 0;
    _windows_sampled = 0;
    _windows_evicted = 0;
    for (Series &s : _series) {
        s.last = s.get();
        s.evicted_sum = 0;
        s.ring.clear();
        s.head = 0;
        s.count = 0;
    }
}

const TimeSeries::Series *
TimeSeries::findSeries(const std::string &name) const
{
    for (const Series &s : _series)
        if (s.name == name)
            return &s;
    return nullptr;
}

std::uint64_t
TimeSeries::seriesTotal(const std::string &name) const
{
    const Series *s = findSeries(name);
    if (s == nullptr)
        return 0;
    std::uint64_t sum = s->evicted_sum;
    for (std::uint64_t v : s->ring)
        sum += v;
    return sum;
}

std::vector<std::uint64_t>
TimeSeries::seriesValues(const std::string &name) const
{
    std::vector<std::uint64_t> out;
    const Series *s = findSeries(name);
    if (s == nullptr)
        return out;
    out.reserve(s->count);
    for (std::size_t i = 0; i < s->count; ++i)
        out.push_back(s->ring[(s->head + i) % s->ring.size()]);
    return out;
}

void
TimeSeries::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.kv("window_cycles", static_cast<std::uint64_t>(_window));
    w.kv("windows", _windows_sampled);
    w.kv("windows_evicted", _windows_evicted);
    w.kv("final_tick", static_cast<std::uint64_t>(_final_tick));
    w.key("series");
    w.beginObject();
    for (const Series &s : _series) {
        w.key(s.name);
        w.beginObject();
        w.kv("kind", s.gauge ? "gauge" : "delta");
        if (!s.gauge)
            w.kv("evicted_sum", s.evicted_sum);
        w.key("values");
        w.beginArray();
        for (std::size_t i = 0; i < s.count; ++i)
            w.value(s.ring[(s.head + i) % s.ring.size()]);
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

} // namespace dsm
