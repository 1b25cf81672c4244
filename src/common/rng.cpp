#include "common/rng.hpp"

#include "common/error.hpp"

namespace pasta {

namespace {

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto& w : state_)
        w = splitmix64(s);
}

std::uint64_t
Rng::next_u64()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

std::uint64_t
Rng::next_below(std::uint64_t bound)
{
    PASTA_ASSERT(bound > 0);
    // Rejection sampling to remove modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next_u64();
        if (r >= threshold)
            return r % bound;
    }
}

Index
Rng::next_index(Index bound)
{
    return static_cast<Index>(next_below(bound));
}

double
Rng::next_double()
{
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

float
Rng::next_float()
{
    return unit_float(next_u64());
}

bool
Rng::next_bernoulli(double p)
{
    return next_double() < p;
}

Rng
Rng::split()
{
    return Rng(next_u64());
}

}  // namespace pasta
