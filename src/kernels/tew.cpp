#include "kernels/tew.hpp"

#include "common/error.hpp"
#include "core/convert.hpp"
#include "obs/counters.hpp"
#include "simd/microkernels.hpp"

namespace pasta {

void
tew_values(EwOp op, const Value* x, const Value* y, Value* z, Size count)
{
    // Table I TEW model: one flop and three value streams per non-zero.
    obs::add("tew.flops", count);
    obs::add("tew.bytes", 12 * count);
    // Pure streaming: three sequential value arrays, no gathers.
    const simd::Isa isa = simd::note_kernel();
    switch (op) {
      case EwOp::kAdd:
        parallel_for_ranges(0, count, [&](Size first, Size last) {
            simd::vadd(isa, z + first, x + first, y + first, last - first);
        });
        break;
      case EwOp::kSub:
        parallel_for_ranges(0, count, [&](Size first, Size last) {
            simd::vsub(isa, z + first, x + first, y + first, last - first);
        });
        break;
      case EwOp::kMul:
        parallel_for_ranges(0, count, [&](Size first, Size last) {
            simd::vhadamard(isa, z + first, x + first, y + first,
                            last - first);
        });
        break;
      case EwOp::kDiv:
        parallel_for_ranges(0, count, [&](Size first, Size last) {
            simd::vdiv(isa, z + first, x + first, y + first, last - first);
        });
        break;
    }
}

CooTensor
tew_coo(const CooTensor& x, const CooTensor& y, EwOp op)
{
    PASTA_CHECK_MSG(x.same_pattern(y),
                    "tew_coo requires identical non-zero patterns; use "
                    "tew_coo_general");
    // Pre-processing: the output pattern is the input pattern.
    CooTensor z = x;
    tew_values(op, x.values().data(), y.values().data(), z.values().data(),
               x.nnz());
    return z;
}

namespace {

/// Three-way lexicographic comparison of non-zeros a (in x) and b (in y).
int
compare_coords(const CooTensor& x, Size a, const CooTensor& y, Size b)
{
    for (Size m = 0; m < x.order(); ++m) {
        const Index ia = x.index(m, a);
        const Index ib = y.index(m, b);
        if (ia != ib)
            return ia < ib ? -1 : 1;
    }
    return 0;
}

}  // namespace

CooTensor
tew_coo_general(const CooTensor& x, const CooTensor& y, EwOp op,
                merge::MergePath* path_out)
{
    PASTA_CHECK_MSG(x.order() == y.order(),
                    "tew_coo_general requires equal tensor order");
    std::vector<Index> out_dims(x.order());
    for (Size m = 0; m < x.order(); ++m)
        out_dims[m] = std::max(x.dim(m), y.dim(m));
    const merge::MergeSemantics semantics =
        (op == EwOp::kAdd || op == EwOp::kSub)
            ? merge::MergeSemantics::kUnion
            : merge::MergeSemantics::kIntersect;
    // The value expressions match the serial reference exactly (no
    // reductions are involved), so the merged output is bit-identical to
    // it at every worker count.
    return merge::merge_materialize(
        x, y, std::move(out_dims), semantics,
        [&](Size a, Size b) { return apply_ew(op, x.value(a), y.value(b)); },
        [&](Size a) { return apply_ew(op, x.value(a), 0); },
        [&](Size b) { return apply_ew(op, 0, y.value(b)); }, path_out);
}

CooTensor
tew_coo_general_serial(const CooTensor& x, const CooTensor& y, EwOp op)
{
    PASTA_CHECK_MSG(x.order() == y.order(),
                    "tew_coo_general requires equal tensor order");
    std::vector<Index> out_dims(x.order());
    for (Size m = 0; m < x.order(); ++m)
        out_dims[m] = std::max(x.dim(m), y.dim(m));
    CooTensor z(out_dims);

    const bool keep_unmatched = (op == EwOp::kAdd || op == EwOp::kSub);
    Size a = 0;
    Size b = 0;
    Coordinate c(x.order());
    while (a < x.nnz() && b < y.nnz()) {
        const int cmp = compare_coords(x, a, y, b);
        if (cmp < 0) {
            if (keep_unmatched)
                z.append(x.coordinate(a), apply_ew(op, x.value(a), 0));
            ++a;
        } else if (cmp > 0) {
            if (keep_unmatched)
                z.append(y.coordinate(b), apply_ew(op, 0, y.value(b)));
            ++b;
        } else {
            z.append(x.coordinate(a), apply_ew(op, x.value(a), y.value(b)));
            ++a;
            ++b;
        }
    }
    if (keep_unmatched) {
        for (; a < x.nnz(); ++a)
            z.append(x.coordinate(a), apply_ew(op, x.value(a), 0));
        for (; b < y.nnz(); ++b)
            z.append(y.coordinate(b), apply_ew(op, 0, y.value(b)));
    }
    return z;
}

HiCooTensor
tew_hicoo(const HiCooTensor& x, const HiCooTensor& y, EwOp op)
{
    PASTA_CHECK_MSG(x.order() == y.order() && x.dims() == y.dims() &&
                        x.nnz() == y.nnz() &&
                        x.num_blocks() == y.num_blocks() &&
                        x.block_bits() == y.block_bits(),
                    "tew_hicoo requires identical HiCOO structure");
    HiCooTensor z = x;
    tew_values(op, x.values().data(), y.values().data(), z.values().data(),
               x.nnz());
    return z;
}

HiCooTensor
tew_hicoo_general(const HiCooTensor& x, const HiCooTensor& y, EwOp op,
                  unsigned block_bits, merge::MergePath* path_out)
{
    PASTA_CHECK_MSG(x.order() == y.order(),
                    "tew_hicoo_general requires equal tensor order");
    if (block_bits == 0)
        block_bits = x.block_bits();
    // Unpack to sorted COO keys (hicoo_to_coo emits lexicographic,
    // duplicate-free streams), merge on the parallel engine, re-block.
    const CooTensor cz =
        tew_coo_general(hicoo_to_coo(x), hicoo_to_coo(y), op, path_out);
    return coo_to_hicoo(cz, block_bits);
}

}  // namespace pasta
