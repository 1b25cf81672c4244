/// \file
/// Deterministic random number generation.
///
/// Reproducibility is one of the paper's explicit benchmark-design goals
/// (§I: "completeness, diversity, extendibility, reproducibility"), so all
/// randomness in the suite — synthetic generators, test tensors, matrix
/// initialization — flows through this seeded generator.
///
/// Two kinds of stream share one mixer.  Rng is sequential: each draw
/// depends on every draw before it.  splitmix64_at is counter-based:
/// output i of a stream is a pure function of (key, i), so a buffer can
/// be filled block by block on any number of threads and come out
/// bit-identical.  Dense random init draws one key from the caller's Rng
/// and fills from the counter stream (see core/dense.hpp).
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace pasta {

/// SplitMix64's Weyl increment (2^64 / golden ratio).
inline constexpr std::uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ULL;

/// SplitMix64's output mixer.
constexpr std::uint64_t
splitmix64_mix(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/// Sequential SplitMix64: advances `state` and returns the next output.
/// Also expands Rng seeds and drives the fault draws.
constexpr std::uint64_t
splitmix64(std::uint64_t& state)
{
    return splitmix64_mix(state += kSplitMixGamma);
}

/// Counter-based SplitMix64: output `i` (0-based) of the stream that
/// splitmix64 produces from a state starting at `key`, computed
/// directly as mix(key + (i+1)·gamma).  Depends only on (key, i).
constexpr std::uint64_t
splitmix64_at(std::uint64_t key, std::uint64_t i)
{
    return splitmix64_mix(key + (i + 1) * kSplitMixGamma);
}

/// Maps 64 random bits to a uniform float in [0, 1) from the top 24.
constexpr float
unit_float(std::uint64_t bits)
{
    return static_cast<float>(bits >> 40) * 0x1.0p-24f;
}

/// Small, fast, seedable PRNG (xoshiro256**).  We implement it directly
/// rather than using std::mt19937 so that streams are cheap to split and
/// the generated datasets are stable across standard libraries.
class Rng {
  public:
    /// Seeds the generator; identical seeds give identical streams.
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /// Returns the next 64 random bits.
    std::uint64_t next_u64();

    /// Returns a uniformly distributed integer in [0, bound).
    std::uint64_t next_below(std::uint64_t bound);

    /// Returns a uniformly distributed Index in [0, bound).
    Index next_index(Index bound);

    /// Returns a uniform double in [0, 1).
    double next_double();

    /// Returns a uniform float in [0, 1).
    float next_float();

    /// Returns true with probability `p`.
    bool next_bernoulli(double p);

    /// Returns a new generator whose stream is decorrelated from this one.
    /// Used to hand independent streams to parallel workers.
    Rng split();

  private:
    std::uint64_t state_[4];
};

}  // namespace pasta
