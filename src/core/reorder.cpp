#include "core/reorder.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace pasta {

Relabeling
degree_relabeling(const CooTensor& x, Size mode)
{
    PASTA_CHECK_MSG(mode < x.order(), "mode out of range");
    const Index n = x.dim(mode);
    std::vector<Size> degree(n, 0);
    for (Size p = 0; p < x.nnz(); ++p)
        ++degree[x.index(mode, p)];
    std::vector<Index> by_degree(n);
    std::iota(by_degree.begin(), by_degree.end(), 0);
    std::stable_sort(by_degree.begin(), by_degree.end(),
                     [&](Index a, Index b) {
                         return degree[a] > degree[b];
                     });
    Relabeling perm(n);
    for (Index rank = 0; rank < n; ++rank)
        perm[by_degree[rank]] = rank;
    return perm;
}

Relabeling
random_relabeling(Size n, Rng& rng)
{
    Relabeling perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    // Fisher-Yates with the suite's deterministic generator.
    for (Size i = n; i > 1; --i) {
        const Size j = rng.next_below(i);
        std::swap(perm[i - 1], perm[j]);
    }
    return perm;
}

void
check_relabeling(const Relabeling& perm, Size n)
{
    PASTA_CHECK_MSG(perm.size() == n,
                    "relabeling size " << perm.size() << " != extent "
                                       << n);
    std::vector<bool> seen(n, false);
    for (Index target : perm) {
        PASTA_CHECK_MSG(target < n, "relabeling target out of range");
        PASTA_CHECK_MSG(!seen[target], "relabeling is not a bijection");
        seen[target] = true;
    }
}

CooTensor
relabel_mode(const CooTensor& x, Size mode, const Relabeling& perm)
{
    PASTA_CHECK_MSG(mode < x.order(), "mode out of range");
    check_relabeling(perm, x.dim(mode));
    CooTensor out = x;
    auto& idx = out.mode_indices(mode);
    for (auto& i : idx)
        i = perm[i];
    out.sort_lexicographic();
    return out;
}

CooTensor
degree_reorder(const CooTensor& x)
{
    CooTensor out = x;
    for (Size mode = 0; mode < x.order(); ++mode) {
        const Relabeling perm = degree_relabeling(out, mode);
        auto& idx = out.mode_indices(mode);
        for (auto& i : idx)
            i = perm[i];
    }
    out.sort_lexicographic();
    return out;
}

}  // namespace pasta
