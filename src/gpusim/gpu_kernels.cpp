#include "gpusim/gpu_kernels.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "gpusim/device.hpp"
#include "validate/validate.hpp"

namespace pasta::gpusim {

namespace {

/// Per-non-zero bytes of a streaming value kernel (read x, read y, write z).
constexpr Size kTewBytesPerNnz = 12;
/// Per-non-zero bytes of TS (read x, write y).
constexpr Size kTsBytesPerNnz = 8;

/// Uniform per-block byte split for balanced 1-D launches.
std::vector<double>
uniform_block_bytes(Size total_bytes, Size num_blocks)
{
    if (num_blocks == 0)
        return {};
    return std::vector<double>(
        num_blocks,
        static_cast<double>(total_bytes) / static_cast<double>(num_blocks));
}

/// Arms per-launch access checking under PASTA_VALIDATE=full.  Reported
/// timing comes from the analytical LaunchProfile, so the armed branch in
/// Span never perturbs the figures; disarmed, Span is a pointer index.
bool
arm_access_checks()
{
    const bool guard = validate::full_checks_enabled();
    AccessMonitor::arm(guard);
    return guard;
}

}  // namespace

namespace {

/// General-pattern COO TEW on the simulated device: the GPU analogue of
/// the CPU merge engine.  Each simulated thread owns one ~256-element
/// diagonal segment of the joint merge; the count launch sizes the
/// output, the host scans, the fill launch materializes pattern and
/// values.  diagonal_split is a pure function of the diagonal, so
/// neighbouring threads agree on their shared boundary without
/// synchronization, and the output is identical to the CPU merged and
/// serial reference results.
LaunchProfile
tew_gpu_coo_general(const CooTensor& x, const CooTensor& y, EwOp op,
                    CooTensor& z, merge::MergePath* path_out)
{
    PASTA_CHECK_MSG(x.order() == y.order(),
                    "tew_gpu_coo requires equal tensor order");
    std::vector<Index> out_dims(x.order());
    for (Size m = 0; m < x.order(); ++m)
        out_dims[m] = std::max(x.dim(m), y.dim(m));
    const merge::MergeKeys keys(x, y, out_dims);
    if (path_out)
        *path_out = keys.path();
    const merge::MergeSemantics semantics =
        (op == EwOp::kAdd || op == EwOp::kSub)
            ? merge::MergeSemantics::kUnion
            : merge::MergeSemantics::kIntersect;
    const Size order = x.order();
    const Size total_in = x.nnz() + y.nnz();
    // One thread per merge tile of kDefaultBlockThreads diagonal steps.
    const Size segments = grid_blocks(total_in, kDefaultBlockThreads);
    const DeviceBuffer dx(x.storage_bytes(), "tew_gpu_coo.x");
    const DeviceBuffer dy(y.storage_bytes(), "tew_gpu_coo.y");
    const DeviceBuffer dcounts(segments * sizeof(Size), "tew_gpu_coo.counts");

    auto thread_range = [&](Size tid) {
        const Size d0 = std::min(total_in, tid * kDefaultBlockThreads);
        const Size d1 = std::min(total_in, (tid + 1) * kDefaultBlockThreads);
        merge::MergePartition part;
        const auto [a0, b0] = keys.diagonal_split(d0);
        const auto [a1, b1] = keys.diagonal_split(d1);
        part.a = {a0, a1};
        part.b = {b0, b1};
        return part;
    };

    std::vector<Size> counts(segments);
    const Dim3 grid{grid_blocks(segments, kDefaultBlockThreads), 1, 1};
    const Dim3 block{kDefaultBlockThreads, 1, 1};
    arm_access_checks();
    const auto counts_span = make_span(counts.data(), segments);
    launch(grid, block, [&](const ThreadCtx& ctx) {
        const Size tid = ctx.global_x();
        if (tid >= segments)
            return;
        const merge::MergePartition part = thread_range(tid);
        counts_span[tid] = keys.count_segment(part, 0, semantics);
    });
    AccessMonitor::throw_if_access_violations("tew_gpu_coo.count");

    const Size total_out = merge::exclusive_scan(counts);
    z = CooTensor(out_dims);
    CooBulkFill out = z.bulk_fill(total_out);
    const DeviceBuffer dz(z.storage_bytes(), "tew_gpu_coo.z");
    std::vector<const Index*> xi(order);
    std::vector<const Index*> yi(order);
    for (Size m = 0; m < order; ++m) {
        xi[m] = x.mode_indices(m).data();
        yi[m] = y.mode_indices(m).data();
    }
    const Value* xv = x.values().data();
    const Value* yv = y.values().data();
    const auto zv = make_span(out.values, total_out);
    arm_access_checks();
    launch(grid, block, [&](const ThreadCtx& ctx) {
        const Size tid = ctx.global_x();
        if (tid >= segments)
            return;
        const merge::MergePartition part = thread_range(tid);
        keys.fill_segment(
            part, 0, semantics, counts[tid],
            [&](Size pos, Size a, Size b) {
                for (Size m = 0; m < order; ++m)
                    out.modes[m][pos] = xi[m][a];
                zv[pos] = apply_ew(op, xv[a], yv[b]);
            },
            [&](Size pos, Size a) {
                for (Size m = 0; m < order; ++m)
                    out.modes[m][pos] = xi[m][a];
                zv[pos] = apply_ew(op, xv[a], 0);
            },
            [&](Size pos, Size b) {
                for (Size m = 0; m < order; ++m)
                    out.modes[m][pos] = yi[m][b];
                zv[pos] = apply_ew(op, 0, yv[b]);
            });
    });
    AccessMonitor::throw_if_access_violations("tew_gpu_coo.fill");

    LaunchProfile prof;
    prof.flops = total_out;
    // Both operand streams are read by the count and fill launches; the
    // output pattern and values are written once; the segment counts
    // cross the device twice (write, then scan-adjusted read).
    prof.dram_bytes = 2 * (x.storage_bytes() + y.storage_bytes()) +
                      z.storage_bytes() + 2 * segments * sizeof(Size);
    prof.working_set_bytes =
        x.storage_bytes() + y.storage_bytes() + z.storage_bytes();
    prof.block_bytes = uniform_block_bytes(prof.dram_bytes, grid.x);
    return prof;
}

}  // namespace

LaunchProfile
tew_gpu_coo(const CooTensor& x, const CooTensor& y, EwOp op, CooTensor& z,
            merge::MergePath* path_out)
{
    if (!x.same_pattern(y))
        return tew_gpu_coo_general(x, y, op, z, path_out);
    PASTA_CHECK_MSG(z.nnz() == x.nnz(), "output nnz mismatch");
    const Size m = x.nnz();
    const DeviceBuffer dx(x.storage_bytes(), "tew_gpu_coo.x");
    const DeviceBuffer dy(y.storage_bytes(), "tew_gpu_coo.y");
    const DeviceBuffer dz(z.storage_bytes(), "tew_gpu_coo.z");
    arm_access_checks();
    const auto xv = make_span(x.values().data(), m);
    const auto yv = make_span(y.values().data(), m);
    const auto zv = make_span(z.values().data(), m);
    const Dim3 grid{grid_blocks(m, kDefaultBlockThreads), 1, 1};
    const Dim3 block{kDefaultBlockThreads, 1, 1};
    launch(grid, block, [&](const ThreadCtx& ctx) {
        const Size tid = ctx.global_x();
        if (tid < m)
            zv[tid] = apply_ew(op, xv[tid], yv[tid]);
    });
    AccessMonitor::throw_if_access_violations("tew_gpu_coo");

    LaunchProfile prof;
    prof.flops = m;
    prof.dram_bytes = kTewBytesPerNnz * m;
    prof.working_set_bytes = 3 * kValueBytes * m;
    prof.block_bytes = uniform_block_bytes(prof.dram_bytes, grid.x);
    return prof;
}

LaunchProfile
tew_gpu_hicoo(const HiCooTensor& x, const HiCooTensor& y, EwOp op,
              HiCooTensor& z)
{
    PASTA_CHECK_MSG(x.nnz() == y.nnz() && x.nnz() == z.nnz(),
                    "tew_gpu_hicoo nnz mismatch");
    const Size m = x.nnz();
    const DeviceBuffer dx(x.storage_bytes(), "tew_gpu_hicoo.x");
    const DeviceBuffer dy(y.storage_bytes(), "tew_gpu_hicoo.y");
    const DeviceBuffer dz(z.storage_bytes(), "tew_gpu_hicoo.z");
    arm_access_checks();
    const auto xv = make_span(x.values().data(), m);
    const auto yv = make_span(y.values().data(), m);
    const auto zv = make_span(z.values().data(), m);
    const Dim3 grid{grid_blocks(m, kDefaultBlockThreads), 1, 1};
    const Dim3 block{kDefaultBlockThreads, 1, 1};
    launch(grid, block, [&](const ThreadCtx& ctx) {
        const Size tid = ctx.global_x();
        if (tid < m)
            zv[tid] = apply_ew(op, xv[tid], yv[tid]);
    });
    AccessMonitor::throw_if_access_violations("tew_gpu_hicoo");

    LaunchProfile prof;
    prof.flops = m;
    prof.dram_bytes = kTewBytesPerNnz * m;
    prof.working_set_bytes = 3 * kValueBytes * m;
    prof.block_bytes = uniform_block_bytes(prof.dram_bytes, grid.x);
    return prof;
}

namespace {

LaunchProfile
ts_gpu_values(const Value* xp, Value* yp, Size m, TsOp op, Value s,
              const char* name)
{
    const DeviceBuffer dx(m * kValueBytes, "ts_gpu.x");
    const DeviceBuffer dy(m * kValueBytes, "ts_gpu.y");
    arm_access_checks();
    const auto xv = make_span(xp, m);
    const auto yv = make_span(yp, m);
    const Dim3 grid{grid_blocks(m, kDefaultBlockThreads), 1, 1};
    const Dim3 block{kDefaultBlockThreads, 1, 1};
    launch(grid, block, [&](const ThreadCtx& ctx) {
        const Size tid = ctx.global_x();
        if (tid < m)
            yv[tid] = apply_ts(op, xv[tid], s);
    });
    AccessMonitor::throw_if_access_violations(name);
    LaunchProfile prof;
    prof.flops = m;
    prof.dram_bytes = kTsBytesPerNnz * m;
    prof.working_set_bytes = 2 * kValueBytes * m;
    prof.block_bytes = uniform_block_bytes(prof.dram_bytes, grid.x);
    return prof;
}

}  // namespace

LaunchProfile
ts_gpu_coo(const CooTensor& x, TsOp op, Value s, CooTensor& y)
{
    PASTA_CHECK_MSG(y.nnz() == x.nnz(), "output nnz mismatch");
    return ts_gpu_values(x.values().data(), y.values().data(), x.nnz(), op,
                         s, "ts_gpu_coo");
}

LaunchProfile
ts_gpu_hicoo(const HiCooTensor& x, TsOp op, Value s, HiCooTensor& y)
{
    PASTA_CHECK_MSG(y.nnz() == x.nnz(), "output nnz mismatch");
    return ts_gpu_values(x.values().data(), y.values().data(), x.nnz(), op,
                         s, "ts_gpu_hicoo");
}

namespace {

/// The TTV launch of both formats (Alg. 2): one thread per fiber, each
/// writing its own output value.  `x_bytes` is the input's device
/// footprint.
LaunchProfile
ttv_launch(const FiberArrays& a, Size x_bytes, const DenseVector& v,
           Size out_nnz, Value* y, Size out_bytes, const char* name)
{
    const Size num_fibers = a.num_fibers;
    const Size m = a.nnz;
    PASTA_CHECK_MSG(out_nnz == num_fibers, "output nnz mismatch");
    PASTA_CHECK_MSG(v.size() == a.extent, "vector length mismatch");
    const DeviceBuffer dx(x_bytes, "ttv_gpu.x");
    const DeviceBuffer dv(v.storage_bytes(), "ttv_gpu.v");
    const DeviceBuffer dout(out_bytes, "ttv_gpu.out");
    const DeviceBuffer dfptr((num_fibers + 1) * sizeof(Size), "ttv_gpu.fptr");
    arm_access_checks();
    const auto xv = make_span(a.values, m);
    const auto kind = make_span(a.indices, m);
    const auto fptr = make_span(a.fptr, num_fibers + 1);
    const auto vv = make_span(v.data(), v.size());
    const auto yv = make_span(y, num_fibers);

    const Dim3 grid{grid_blocks(num_fibers, kDefaultBlockThreads), 1, 1};
    const Dim3 block{kDefaultBlockThreads, 1, 1};
    launch(grid, block, [&](const ThreadCtx& ctx) {
        const Size tid = ctx.global_x();
        if (tid >= num_fibers)
            return;
        Value acc = 0;
        for (Size p = fptr[tid]; p < fptr[tid + 1]; ++p)
            acc += xv[p] * vv[kind[p]];
        yv[tid] = acc;
    });
    AccessMonitor::throw_if_access_violations(name);

    LaunchProfile prof;
    prof.flops = 2 * m;
    prof.dram_bytes = 12 * m + 12 * num_fibers;
    prof.working_set_bytes =
        8 * m + kValueBytes * v.size() + 12 * num_fibers;
    // Thread block b owns fibers [b*256, (b+1)*256); each fiber moves 12
    // bytes per non-zero (value + mode index + gathered vector element)
    // plus 12 bytes of output/fptr traffic.
    prof.block_bytes.assign(grid.x, 0.0);
    for (Size f = 0; f < num_fibers; ++f)
        prof.block_bytes[f / kDefaultBlockThreads] +=
            12.0 * static_cast<double>(a.fptr[f + 1] - a.fptr[f]) + 12.0;
    return prof;
}

/// The TTM launch of both formats: 2-D thread blocks whose x walks
/// matrix columns (coalesced) and whose y walks non-zeros (paper
/// §III-B2; Ma et al. [34]), adding into the output stripes (`rank`
/// values each) atomically.  Table I charges `fiber_bytes` per fiber for
/// the fiber's output indices, which is where the formats differ.
LaunchProfile
ttm_launch(const FiberArrays& a, Size x_bytes, const DenseMatrix& u,
           Size rank, Size out_stripes, Value* y, Size out_bytes,
           Size fiber_bytes, const char* name)
{
    const Size m = a.nnz;
    const Size num_fibers = a.num_fibers;
    PASTA_CHECK_MSG(u.cols() == rank, "matrix rank mismatch");
    PASTA_CHECK_MSG(out_stripes == num_fibers,
                    "output stripe count mismatch");
    std::fill(y, y + num_fibers * rank, 0.0f);
    // The non-zero -> fiber map the 2-D mapping consumes.
    std::vector<Index> fiber_map(m);
    for (Size f = 0; f < num_fibers; ++f)
        std::fill(fiber_map.begin() + static_cast<std::ptrdiff_t>(a.fptr[f]),
                  fiber_map.begin() +
                      static_cast<std::ptrdiff_t>(a.fptr[f + 1]),
                  static_cast<Index>(f));

    const DeviceBuffer dx(x_bytes, "ttm_gpu.x");
    const DeviceBuffer du(u.storage_bytes(), "ttm_gpu.u");
    const DeviceBuffer dout(out_bytes, "ttm_gpu.out");
    const DeviceBuffer dfiber(m * sizeof(Index), "ttm_gpu.fiber_of");
    arm_access_checks();
    const auto xv = make_span(a.values, m);
    const auto kind = make_span(a.indices, m);
    const auto fiber_of = make_span(fiber_map.data(), m);
    const auto uv = make_span(u.data(), u.rows() * rank);
    const auto outv = make_span(y, num_fibers * rank);

    const Size by = std::max<Size>(1, kDefaultBlockThreads / rank);
    const Dim3 block{rank, by, 1};
    const Dim3 grid{grid_blocks(m, by), 1, 1};
    launch(grid, block, [&](const ThreadCtx& ctx) {
        const Size p = ctx.block_idx.x * ctx.block_dim.y + ctx.thread_idx.y;
        const Size r = ctx.thread_idx.x;
        if (p >= m)
            return;
        const Value contrib =
            xv[p] * uv[static_cast<Size>(kind[p]) * rank + r];
        atomic_add(&outv[static_cast<Size>(fiber_of[p]) * rank + r],
                   contrib);
    });
    AccessMonitor::throw_if_access_violations(name);

    LaunchProfile prof;
    prof.flops = 2 * m * rank;
    prof.dram_bytes = 4 * m * rank + 4 * num_fibers * rank + 8 * m +
                      fiber_bytes * num_fibers;
    prof.working_set_bytes = 8 * m + u.rows() * rank * kValueBytes +
                             num_fibers * rank * kValueBytes;
    prof.atomics = m * rank;
    prof.block_bytes = uniform_block_bytes(prof.dram_bytes, grid.x);
    return prof;
}

}  // namespace

LaunchProfile
ttv_gpu_coo(const CooTtvPlan& plan, const DenseVector& v, CooTensor& out)
{
    return ttv_launch(plan.fibers.arrays(),
                      plan.fibers.sorted().storage_bytes(), v, out.nnz(),
                      out.values().data(), out.storage_bytes(),
                      "ttv_gpu_coo");
}

LaunchProfile
ttv_gpu_hicoo(const HicooTtvPlan& plan, const DenseVector& v,
              HiCooTensor& out)
{
    return ttv_launch(plan.fibers.arrays(),
                      plan.fibers.tensor().storage_bytes(), v, out.nnz(),
                      out.values().data(), out.storage_bytes(),
                      "ttv_gpu_hicoo");
}

LaunchProfile
ttm_gpu_coo(const CooTtmPlan& plan, const DenseMatrix& u, ScooTensor& out)
{
    // Table I, COO-TTM row: 4MR + 4 M_F R + 8 M_F + 8M + 8 M_F.
    return ttm_launch(plan.fibers.arrays(),
                      plan.fibers.sorted().storage_bytes(), u, plan.rank,
                      out.num_sparse(), out.values().data(),
                      out.storage_bytes(), 16, "ttm_gpu_coo");
}

LaunchProfile
ttm_gpu_hicoo(const HicooTtmPlan& plan, const DenseMatrix& u,
              SHiCooTensor& out)
{
    // Table I, HiCOO-TTM row: 4MR + 4 M_F R + 8M + 8 M_F.
    return ttm_launch(plan.fibers.arrays(),
                      plan.fibers.tensor().storage_bytes(), u, plan.rank,
                      out.num_sparse(), out.values().data(),
                      out.storage_bytes(), 8, "ttm_gpu_hicoo");
}

LaunchProfile
mttkrp_gpu_coo(const CooTensor& x, const FactorList& factors, Size mode,
               DenseMatrix& out)
{
    const Size rank = check_factors(x.dims(), factors);
    PASTA_CHECK_MSG(mode < x.order(), "mode out of range");
    PASTA_CHECK_MSG(out.rows() == x.dim(mode) && out.cols() == rank,
                    "output matrix shape mismatch");
    out.fill(0);
    const Size m = x.nnz();
    const Size order = x.order();

    const DeviceBuffer dx(x.storage_bytes(), "mttkrp_gpu_coo.x");
    Size factor_bytes = 0;
    for (Size mm = 0; mm < order; ++mm)
        factor_bytes += factors[mm]->storage_bytes();
    const DeviceBuffer df(factor_bytes, "mttkrp_gpu_coo.factors");
    const DeviceBuffer dout(out.storage_bytes(), "mttkrp_gpu_coo.out");
    arm_access_checks();
    const auto xv = make_span(x.values().data(), m);
    std::vector<Span<const Value>> fs(order);
    for (Size mm = 0; mm < order; ++mm)
        fs[mm] = make_span(factors[mm]->data(),
                           factors[mm]->rows() * rank);
    const auto outv = make_span(out.data(), out.rows() * rank);

    const Size by = std::max<Size>(1, kDefaultBlockThreads / rank);
    const Dim3 block{rank, by, 1};
    const Dim3 grid{grid_blocks(m, by), 1, 1};
    launch(grid, block, [&](const ThreadCtx& ctx) {
        const Size p = ctx.block_idx.x * ctx.block_dim.y + ctx.thread_idx.y;
        const Size r = ctx.thread_idx.x;
        if (p >= m)
            return;
        Value prod = xv[p];
        for (Size mm = 0; mm < order; ++mm) {
            if (mm == mode)
                continue;
            prod *= fs[mm][static_cast<Size>(x.index(mm, p)) * rank + r];
        }
        atomic_add(&outv[static_cast<Size>(x.index(mode, p)) * rank + r],
                   prod);
    });
    AccessMonitor::throw_if_access_violations("mttkrp_gpu_coo");

    LaunchProfile prof;
    prof.flops = order * m * rank;
    // Table I, COO-MTTKRP row generalized: 4 N M R + 4(N+1) M.
    prof.dram_bytes = 4 * order * m * rank + 4 * (order + 1) * m;
    Size ws_factor_bytes = 0;
    for (Size mm = 0; mm < order; ++mm)
        ws_factor_bytes += factors[mm]->rows() * rank * kValueBytes;
    prof.working_set_bytes =
        (order + 1) * kIndexBytes * m + ws_factor_bytes +
        out.rows() * rank * kValueBytes;
    prof.atomics = m * rank;
    prof.block_bytes = uniform_block_bytes(prof.dram_bytes, grid.x);
    return prof;
}

LaunchProfile
mttkrp_gpu_hicoo(const HiCooTensor& x, const FactorList& factors, Size mode,
                 DenseMatrix& out)
{
    const Size rank = check_factors(x.dims(), factors);
    PASTA_CHECK_MSG(mode < x.order(), "mode out of range");
    PASTA_CHECK_MSG(out.rows() == x.dim(mode) && out.cols() == rank,
                    "output matrix shape mismatch");
    PASTA_CHECK_MSG(x.order() <= 8, "HiCOO MTTKRP supports order <= 8");
    out.fill(0);
    const Size order = x.order();
    const unsigned bits = x.block_bits();
    const Size nb = x.num_blocks();
    const auto& bptr = x.bptr();

    const DeviceBuffer dx(x.storage_bytes(), "mttkrp_gpu_hicoo.x");
    Size factor_bytes = 0;
    for (Size mm = 0; mm < order; ++mm)
        factor_bytes += factors[mm]->storage_bytes();
    const DeviceBuffer df(factor_bytes, "mttkrp_gpu_hicoo.factors");
    const DeviceBuffer dout(out.storage_bytes(), "mttkrp_gpu_hicoo.out");
    arm_access_checks();
    const auto xv = make_span(x.values().data(), x.nnz());
    std::vector<Span<const Value>> fs(order);
    for (Size mm = 0; mm < order; ++mm)
        fs[mm] = make_span(factors[mm]->data(),
                           factors[mm]->rows() * rank);
    const auto outv = make_span(out.data(), out.rows() * rank);

    // One tensor block per thread block (paper §III-D2): the x dimension
    // walks the rank, the y dimension walks the block's non-zeros.
    const Size by = std::max<Size>(1, kDefaultBlockThreads / rank);
    const Dim3 block{rank, by, 1};
    const Dim3 grid{nb, 1, 1};
    launch(grid, block, [&](const ThreadCtx& ctx) {
        const Size b = ctx.block_idx.x;
        const Size r = ctx.thread_idx.x;
        Size base[8];
        for (Size mm = 0; mm < order; ++mm)
            base[mm] = (static_cast<Size>(x.block_index(mm, b)) << bits) *
                       rank;
        const Size out_base =
            (static_cast<Size>(x.block_index(mode, b)) << bits) * rank;
        const Size stride = rank;
        // Each y-thread strides over the block's non-zeros.
        for (Size p = bptr[b] + ctx.thread_idx.y; p < bptr[b + 1];
             p += ctx.block_dim.y) {
            Value prod = xv[p];
            for (Size mm = 0; mm < order; ++mm) {
                if (mm == mode)
                    continue;
                prod *= fs[mm][base[mm] +
                               static_cast<Size>(x.element_index(mm, p)) *
                                   stride +
                               r];
            }
            atomic_add(
                &outv[out_base +
                      static_cast<Size>(x.element_index(mode, p)) * stride +
                      r],
                prod);
        }
    });
    AccessMonitor::throw_if_access_violations("mttkrp_gpu_hicoo");

    const Size m = x.nnz();
    LaunchProfile prof;
    prof.flops = order * m * rank;
    // Table I, HiCOO-MTTKRP row generalized:
    // 4 N R min(n_b B, M) + (4 + N) M + (4N + 8) n_b.
    const Size block_edge = x.block_size();
    prof.dram_bytes = 4 * order * rank * std::min(nb * block_edge, m) +
                      (4 + order) * m + (4 * order + 8) * nb;
    Size ws_factor_bytes = 0;
    for (Size mm = 0; mm < order; ++mm)
        ws_factor_bytes += factors[mm]->rows() * rank * kValueBytes;
    prof.working_set_bytes = x.storage_bytes() + ws_factor_bytes +
                             out.rows() * rank * kValueBytes;
    prof.atomics = m * rank;
    // Per-thread-block traffic is proportional to the block's population
    // plus its matrix tiles; this is where the HiCOO GPU kernel's load
    // imbalance comes from.
    prof.block_bytes.resize(nb);
    for (Size b = 0; b < nb; ++b) {
        const Size nnz_b = bptr[b + 1] - bptr[b];
        prof.block_bytes[b] =
            static_cast<double>((4 + order) * nnz_b +
                                4 * order * rank * block_edge +
                                (4 * order + 8));
    }
    return prof;
}

}  // namespace pasta::gpusim
