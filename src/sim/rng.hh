/**
 * @file
 * Small deterministic pseudo-random number generator (xoshiro256**).
 *
 * The standard library engines are avoided so that simulation results are
 * identical across standard library implementations.
 */

#ifndef DSM_SIM_RNG_HH
#define DSM_SIM_RNG_HH

#include <cstdint>

namespace dsm {

/** SplitMix64's increment, the 64-bit golden-ratio constant. */
constexpr std::uint64_t SPLITMIX_GAMMA = 0x9e3779b97f4a7c15ULL;

/**
 * One SplitMix64 step from state @p s: derives an independent,
 * well-mixed seed from any 64-bit value (neighbouring inputs give
 * uncorrelated outputs).
 */
constexpr std::uint64_t
mixSeed(std::uint64_t s)
{
    std::uint64_t z = s + SPLITMIX_GAMMA;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Deterministic RNG; every consumer owns its own stream. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = SPLITMIX_GAMMA)
    {
        // SplitMix64 expansion of the seed into the xoshiro state.
        for (auto &s : _state) {
            s = mixSeed(seed);
            seed += SPLITMIX_GAMMA;
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t *s = _state;
        std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform value in [0, bound); bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform value in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Bernoulli trial with probability num/den. */
    bool
    chance(std::uint64_t num, std::uint64_t den)
    {
        return below(den) < num;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t _state[4];
};

} // namespace dsm

#endif // DSM_SIM_RNG_HH
