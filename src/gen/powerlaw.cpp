#include "gen/powerlaw.hpp"

#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace pasta {

namespace {

/// One mode's inverse-CDF sampler of the continuous bounded power law on
/// [1, dim+1):  x = ((hi - 1) u + 1)^(1/(1-a)),  hi = (dim+1)^(1-a),
/// a = alpha.  The two pow-derived constants are computed once, not per
/// draw.
class PowerLawSampler {
  public:
    PowerLawSampler(Index dim, double alpha) : dim_(dim)
    {
        if (dim <= 1)
            return;
        PASTA_ASSERT(alpha > 1.0);
        const double one_minus_a = 1.0 - alpha;
        hi_minus_1_ =
            std::pow(static_cast<double>(dim) + 1.0, one_minus_a) - 1.0;
        inv_exp_ = 1.0 / one_minus_a;
    }

    /// An extent-1 mode draws nothing from `rng`.
    Index operator()(Rng& rng) const
    {
        PASTA_ASSERT(dim_ > 0);
        if (dim_ == 1)
            return 0;
        const double u = rng.next_double();
        const double x = std::pow(hi_minus_1_ * u + 1.0, inv_exp_);
        const Index idx = static_cast<Index>(x) - 1;
        return idx >= dim_ ? dim_ - 1 : idx;
    }

  private:
    Index dim_;
    double hi_minus_1_ = 0.0;
    double inv_exp_ = 0.0;
};

/// Set of 64-bit coordinate hashes: open addressing with linear probing
/// in a power-of-two table kept at most half full.  insert() accepts and
/// rejects exactly as std::unordered_set<std::uint64_t>::insert does.
class HashSet {
  public:
    /// Room for `max_entries` inserted hashes.
    explicit HashSet(Size max_entries)
    {
        unsigned bits = 4;
        while ((Size{1} << bits) < 2 * max_entries)
            ++bits;
        slots_.assign(Size{1} << bits, 0);
        shift_ = 64 - bits;
    }

    /// True when `h` was not in the set (it is now).
    bool insert(std::uint64_t h)
    {
        // 0 marks an empty slot, so the hash 0 is kept aside.
        if (h == 0) {
            const bool fresh = !has_zero_;
            has_zero_ = true;
            return fresh;
        }
        const Size mask = slots_.size() - 1;
        // Fibonacci hashing: the product's top bits mix every bit of h.
        for (Size i = (h * 0x9E3779B97F4A7C15ULL) >> shift_;;
             i = (i + 1) & mask) {
            if (slots_[i] == h)
                return false;
            if (slots_[i] == 0) {
                slots_[i] = h;
                return true;
            }
        }
    }

  private:
    std::vector<std::uint64_t> slots_;
    unsigned shift_ = 0;
    bool has_zero_ = false;
};

}  // namespace

Index
sample_powerlaw_index(Rng& rng, Index dim, double alpha)
{
    return PowerLawSampler(dim, alpha)(rng);
}

CooTensor
generate_powerlaw(const PowerLawConfig& config)
{
    PASTA_CHECK_MSG(!config.dims.empty(), "dims must be non-empty");
    PASTA_CHECK_MSG(config.alpha > 1.0, "alpha must exceed 1");
    const Size order = config.dims.size();
    PASTA_CHECK_MSG(config.uniform_mode.empty() ||
                        config.uniform_mode.size() == order,
                    "uniform_mode arity mismatch");

    double capacity = 1.0;
    for (Index d : config.dims)
        capacity *= static_cast<double>(d);
    PASTA_CHECK_MSG(static_cast<double>(config.nnz) <= 0.5 * capacity,
                    "requested nnz too dense for distinct sampling");

    Rng rng(config.seed);
    CooTensor out(config.dims);
    out.reserve(config.nnz);
    std::vector<PowerLawSampler> samplers;
    for (Size m = 0; m < order; ++m)
        samplers.emplace_back(config.dims[m], config.alpha);
    HashSet seen(config.nnz);
    Coordinate coord(order);
    Size attempts = 0;
    const Size max_attempts = 1000 * (config.nnz + 1000);
    while (out.nnz() < config.nnz) {
        PASTA_CHECK_MSG(++attempts <= max_attempts,
                        "power-law sampling did not converge; hot indices "
                        "saturated?  Lower alpha or nnz.");
        for (Size m = 0; m < order; ++m) {
            const bool uniform =
                !config.uniform_mode.empty() && config.uniform_mode[m];
            coord[m] = uniform ? rng.next_index(config.dims[m])
                               : samplers[m](rng);
        }
        std::uint64_t h = 1469598103934665603ULL;
        for (Size m = 0; m < order; ++m)
            h = (h ^ coord[m]) * 1099511628211ULL;
        if (seen.insert(h))
            out.append(coord, rng.next_float() + 0.5f);
    }
    out.sort_lexicographic();
    return out;
}

}  // namespace pasta
