/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All randomness in Adyna flows through explicitly seeded Rng
 * instances so every experiment is reproducible; no component may use
 * wall-clock or global entropy. The generator is xoshiro256**, seeded
 * through SplitMix64 so that nearby seeds produce uncorrelated
 * streams.
 */

#ifndef ADYNA_COMMON_RNG_HH
#define ADYNA_COMMON_RNG_HH

#include <array>
#include <cstdint>
#include <vector>

namespace adyna {

/** xoshiro256** pseudo-random generator with convenience draws. */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Raw 64-bit draw. */
    std::uint64_t next();

    /** Satisfy UniformRandomBitGenerator. */
    result_type operator()() { return next(); }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi], inclusive on both ends. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p);

    /** Standard normal draw (Marsaglia polar method). */
    double normal();

    /** Normal draw with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Gamma(shape, 1) draw (Marsaglia-Tsang); shape > 0. */
    double gamma(double shape);

    /** Beta(a, b) draw via two gamma draws; a, b > 0. */
    double beta(double a, double b);

    /**
     * Draw an index from an unnormalized weight vector.
     * @param weights non-negative weights; must contain a positive one.
     */
    std::size_t categorical(const std::vector<double> &weights);

    /**
     * Binomial draw: number of successes in n Bernoulli(p) trials.
     * Exact (n draws) for small n, normal approximation for large n.
     */
    std::uint32_t binomial(std::uint32_t n, double p);

    /** Fork a child generator with an independent stream. */
    Rng fork();

  private:
    std::array<std::uint64_t, 4> state_;
    bool hasSpareNormal_ = false;
    double spareNormal_ = 0.0;
};

} // namespace adyna

#endif // ADYNA_COMMON_RNG_HH
