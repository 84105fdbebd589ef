#include "stats/histogram.hh"

#include <cmath>

#include "sim/logging.hh"

namespace dsm {

void
Histogram::add(std::uint64_t value, std::uint64_t count)
{
    if (value >= _buckets.size())
        _buckets.resize(value + 1, 0);
    _buckets[value] += count;
    _samples += count;
    _sum += value * count;
    if (value > _max)
        _max = value;
}

double
Histogram::mean() const
{
    return _samples == 0 ? 0.0
                         : static_cast<double>(_sum) /
                               static_cast<double>(_samples);
}

std::uint64_t
Histogram::count(std::uint64_t value) const
{
    return value < _buckets.size() ? _buckets[value] : 0;
}

double
Histogram::fraction(std::uint64_t value) const
{
    return _samples == 0 ? 0.0
                         : static_cast<double>(count(value)) /
                               static_cast<double>(_samples);
}

std::uint64_t
Histogram::rank(double q) const
{
    // Nearest-rank: the target rank is ceil(q * n), clamped to [1, n],
    // so fractional ranks round up and percentile(1.0) is the maximum.
    std::uint64_t target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(_samples)));
    if (target == 0)
        target = 1;
    if (target > _samples)
        target = _samples;
    return target;
}

std::uint64_t
Histogram::percentile(double q) const
{
    if (_samples == 0)
        return 0;
    std::uint64_t target = rank(q);
    std::uint64_t seen = 0;
    for (std::uint64_t v = 0; v < _buckets.size(); ++v) {
        seen += _buckets[v];
        if (seen >= target)
            return v;
    }
    return _max;
}

Histogram::Percentiles
Histogram::percentiles() const
{
    if (_samples == 0)
        return {};
    // Ranks grow with q, so one cumulative walk meets them in order.
    const std::uint64_t target[] = {rank(0.50), rank(0.95), rank(0.99),
                                    rank(0.999)};
    std::uint64_t at[] = {_max, _max, _max, _max};
    std::size_t k = 0;
    std::uint64_t seen = 0;
    for (std::uint64_t v = 0; v < _buckets.size() && k < 4; ++v) {
        seen += _buckets[v];
        while (k < 4 && seen >= target[k])
            at[k++] = v;
    }
    return {at[0], at[1], at[2], at[3]};
}

void
Histogram::merge(const Histogram &other)
{
    for (std::uint64_t v = 0; v < other._buckets.size(); ++v)
        if (other._buckets[v] != 0)
            add(v, other._buckets[v]);
}

void
Histogram::clear()
{
    _buckets.clear();
    _samples = 0;
    _sum = 0;
    _max = 0;
}

std::string
Histogram::summary() const
{
    return csprintf("n=%llu, mean=%.2f, max=%llu",
                    static_cast<unsigned long long>(_samples), mean(),
                    static_cast<unsigned long long>(_max));
}

} // namespace dsm
