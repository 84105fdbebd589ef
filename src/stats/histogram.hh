/**
 * @file
 * Simple integer histogram with mean/percentile helpers, used for the
 * paper's contention histograms (Figure 2) and latency distributions.
 */

#ifndef DSM_STATS_HISTOGRAM_HH
#define DSM_STATS_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace dsm {

/** Histogram over non-negative integer samples, unit-width buckets. */
class Histogram
{
  public:
    /** Record one sample. */
    void add(std::uint64_t value, std::uint64_t count = 1);

    /** Total number of samples. */
    std::uint64_t samples() const { return _samples; }

    /** Sum of all samples. */
    std::uint64_t sum() const { return _sum; }

    /** Arithmetic mean; 0 if empty. */
    double mean() const;

    /** Largest sample seen; 0 if empty. */
    std::uint64_t max() const { return _max; }

    /** Count in bucket @p value. */
    std::uint64_t count(std::uint64_t value) const;

    /** Fraction of samples equal to @p value (0..1). */
    double fraction(std::uint64_t value) const;

    /** Smallest v such that at least @p q of samples are <= v. */
    std::uint64_t percentile(double q) const;

    /** @name Standard report percentiles. @{ */
    std::uint64_t p50() const { return percentile(0.50); }
    std::uint64_t p95() const { return percentile(0.95); }
    std::uint64_t p99() const { return percentile(0.99); }
    std::uint64_t p999() const { return percentile(0.999); }
    /** @} */

    /** The four standard report percentiles together. */
    struct Percentiles
    {
        std::uint64_t p50 = 0;
        std::uint64_t p95 = 0;
        std::uint64_t p99 = 0;
        std::uint64_t p999 = 0;
    };

    /** p50/p95/p99/p999 in one walk over the buckets; each field
     *  equals the matching percentile(q). */
    Percentiles percentiles() const;

    /** Fold another histogram's samples into this one. */
    void merge(const Histogram &other);

    /** Forget everything. */
    void clear();

    /** One-line summary: "n=..., mean=..., max=...". */
    std::string summary() const;

    /** Direct access to the bucket array (index = sample value). */
    const std::vector<std::uint64_t> &buckets() const { return _buckets; }

  private:
    /** Nearest-rank target of quantile @p q: ceil(q * n) in [1, n]. */
    std::uint64_t rank(double q) const;

    std::vector<std::uint64_t> _buckets;
    std::uint64_t _samples = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _max = 0;
};

} // namespace dsm

#endif // DSM_STATS_HISTOGRAM_HH
