/**
 * @file
 * Deterministic, seedable random number generation.
 *
 * All stochastic components of FastGL (graph generators, samplers, weight
 * initialisation) draw from Rng so that every benchmark row is exactly
 * reproducible for a given seed. The engine is xoshiro256** — fast, high
 * quality, and trivially split-able for per-thread streams.
 */
#pragma once

#include <cstdint>
#include <limits>

namespace fastgl {
namespace util {

/** splitmix64 — used to expand a single seed into engine state. */
inline uint64_t
splitmix64(uint64_t &state)
{
    state += 0x9E3779B97f4A7C15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/**
 * Derive an independent stream seed from (base, stream, index).
 *
 * Used for per-batch RNG streams: sampling batch `index` of epoch
 * `stream` under seed `base` yields the same subgraph no matter which
 * thread (or how many threads) runs it, which is what lets
 * core::Pipeline sample windows on a pool and stay bit-identical to
 * sequential execution.
 */
inline uint64_t
derive_seed(uint64_t base, uint64_t stream, uint64_t index)
{
    uint64_t state = base;
    uint64_t mixed = splitmix64(state);
    state = mixed ^ (stream * 0xD1B54A32D192ED03ULL);
    mixed = splitmix64(state);
    state = mixed ^ (index * 0x9E3779B97F4A7C15ULL);
    return splitmix64(state);
}

/** xoshiro256** pseudo random generator. */
class Rng
{
  public:
    using result_type = uint64_t;

    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(uint64_t seed = 0x5EEDFA57ULL)
    {
        uint64_t sm = seed;
        for (auto &word : state_)
            word = splitmix64(sm);
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type
    max()
    {
        return std::numeric_limits<uint64_t>::max();
    }

    /** Next raw 64-bit value. */
    uint64_t
    operator()()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) without modulo bias (Lemire). */
    uint64_t
    next_below(uint64_t bound)
    {
        if (bound == 0)
            return 0;
        __uint128_t m = static_cast<__uint128_t>((*this)()) * bound;
        uint64_t lo = static_cast<uint64_t>(m);
        if (lo < bound) {
            uint64_t threshold = (0 - bound) % bound;
            while (lo < threshold) {
                m = static_cast<__uint128_t>((*this)()) * bound;
                lo = static_cast<uint64_t>(m);
            }
        }
        return static_cast<uint64_t>(m >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    next_double()
    {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Uniform float in [lo, hi). */
    float
    next_float(float lo, float hi)
    {
        return lo + static_cast<float>(next_double()) * (hi - lo);
    }

    /** Approximately normal sample via sum of uniforms (Irwin–Hall 12). */
    float
    next_gaussian(float mean = 0.0f, float stddev = 1.0f)
    {
        double acc = 0.0;
        for (int i = 0; i < 12; ++i)
            acc += next_double();
        return mean + stddev * static_cast<float>(acc - 6.0);
    }

    /** Derive an independent stream; useful for per-thread RNGs. */
    Rng
    split()
    {
        return Rng((*this)());
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
};

} // namespace util
} // namespace fastgl
