#include "analysis/features.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "common/error.hpp"
#include "core/convert.hpp"
#include "core/fibers.hpp"

namespace pasta {

TensorFeatures
extract_features(const CooTensor& x, unsigned block_bits)
{
    TensorFeatures features;
    features.order = x.order();
    features.nnz = x.nnz();
    double capacity = 1.0;
    for (Index d : x.dims())
        capacity *= static_cast<double>(d);
    features.density =
        capacity > 0 ? static_cast<double>(x.nnz()) / capacity : 0;

    for (Size mode = 0; mode < x.order(); ++mode) {
        ModeFeatures mf;
        mf.dim = x.dim(mode);
        if (x.nnz() > 0) {
            const FiberView fibers(x, mode);
            const std::vector<Size>& fptr = fibers.fptr();
            mf.num_fibers = fibers.num_fibers();
            mf.mean_fiber_nnz =
                static_cast<double>(x.nnz()) /
                static_cast<double>(std::max<Size>(1, mf.num_fibers));
            double var = 0.0;
            for (Size f = 0; f < mf.num_fibers; ++f) {
                const Size len = fptr[f + 1] - fptr[f];
                mf.max_fiber_nnz = std::max(mf.max_fiber_nnz, len);
                const double d =
                    static_cast<double>(len) - mf.mean_fiber_nnz;
                var += d * d;
            }
            if (mf.num_fibers > 0) {
                var /= static_cast<double>(mf.num_fibers);
                mf.cv_fiber_nnz = mf.mean_fiber_nnz > 0
                                      ? std::sqrt(var) / mf.mean_fiber_nnz
                                      : 0;
            }
            std::unordered_set<Index> used(x.mode_indices(mode).begin(),
                                           x.mode_indices(mode).end());
            mf.used_indices = used.size();
        }
        features.modes.push_back(mf);
    }

    if (x.nnz() > 0) {
        const HiCooTensor h = coo_to_hicoo(x, block_bits);
        features.hicoo_blocks = h.num_blocks();
        features.mean_block_nnz = h.mean_block_nnz();
        features.max_block_nnz = h.max_block_nnz();

        double mean = 0.0;
        for (Value v : x.values())
            mean += v;
        mean /= static_cast<double>(x.nnz());
        double var = 0.0;
        for (Value v : x.values()) {
            const double d = static_cast<double>(v) - mean;
            var += d * d;
        }
        features.value_mean = mean;
        features.value_std =
            std::sqrt(var / static_cast<double>(x.nnz()));
    }
    return features;
}

std::string
features_report(const TensorFeatures& features)
{
    std::ostringstream oss;
    oss << "order " << features.order << ", nnz " << features.nnz
        << ", density " << features.density << "\n";
    for (Size m = 0; m < features.modes.size(); ++m) {
        const ModeFeatures& mf = features.modes[m];
        oss << "  mode " << m << ": dim " << mf.dim << ", fibers "
            << mf.num_fibers << " (mean " << mf.mean_fiber_nnz << ", max "
            << mf.max_fiber_nnz << ", cv " << mf.cv_fiber_nnz
            << "), used " << mf.used_indices << "\n";
    }
    oss << "  hicoo: " << features.hicoo_blocks << " blocks, mean "
        << features.mean_block_nnz << " nnz/block, max "
        << features.max_block_nnz << "\n";
    oss << "  values: mean " << features.value_mean << ", std "
        << features.value_std;
    return oss.str();
}

namespace {

double
log_ratio(double a, double b)
{
    const double lo = 1e-300;
    return std::abs(std::log10(std::max(a, lo)) -
                    std::log10(std::max(b, lo)));
}

}  // namespace

double
features_distance(const TensorFeatures& a, const TensorFeatures& b)
{
    PASTA_CHECK_MSG(a.order == b.order,
                    "features_distance: order mismatch");
    double total = log_ratio(a.density, b.density);
    for (Size m = 0; m < a.order; ++m)
        total += log_ratio(a.modes[m].mean_fiber_nnz,
                           b.modes[m].mean_fiber_nnz);
    total += log_ratio(a.mean_block_nnz, b.mean_block_nnz);
    return total / static_cast<double>(a.order + 2);
}

}  // namespace pasta
