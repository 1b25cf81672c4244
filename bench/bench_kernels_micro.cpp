/// \file
/// google-benchmark micro sweeps over the five kernels: non-zero count,
/// rank, block size, and format, on power-law tensors.  Complements the
/// table/figure harnesses with statistically managed per-kernel timings.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/convert.hpp"
#include "gen/powerlaw.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/tew.hpp"
#include "kernels/ts.hpp"
#include "kernels/ttm.hpp"
#include "kernels/ttv.hpp"
#include "methods/cpd.hpp"
#include "methods/linalg.hpp"
#include "methods/tucker.hpp"
#include "simd/microkernels.hpp"

namespace {

using namespace pasta;

CooTensor
bench_tensor(Size nnz)
{
    PowerLawConfig config;
    config.dims = {1u << 16, 1u << 16, 128};
    config.nnz = nnz;
    config.uniform_mode = {false, false, true};
    config.seed = 42;
    return generate_powerlaw(config);
}

/// Deterministically shuffled copy: sort benchmarks must not start from
/// already-ordered input or they measure the pre-sorted fast path.
CooTensor
shuffled_tensor(Size nnz)
{
    CooTensor x = bench_tensor(nnz);
    std::vector<Size> perm(x.nnz());
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), std::mt19937(12345));
    x.apply_permutation(perm);
    return x;
}

/// Rate counter in FLOP/s; bench_smoke.sh divides by 1e9 for GFLOPs.
void
set_flops(benchmark::State& state, double flops_per_iter)
{
    state.counters["flops"] = benchmark::Counter(
        flops_per_iter * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

void
BM_TewCoo(benchmark::State& state)
{
    const CooTensor x = bench_tensor(static_cast<Size>(state.range(0)));
    Rng rng(1);
    CooTensor y = x;
    for (auto& v : y.values())
        v = rng.next_float();
    CooTensor z = x;
    for (auto _ : state) {
        tew_values(EwOp::kAdd, x.values().data(), y.values().data(),
                   z.values().data(), x.nnz());
        benchmark::DoNotOptimize(z.values().data());
    }
    state.SetItemsProcessed(state.iterations() * x.nnz());
    state.SetBytesProcessed(state.iterations() * 12 * x.nnz());
}
BENCHMARK(BM_TewCoo)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18);

/// Second operand for general TEW with a controlled pattern overlap:
/// reuses `pct` percent of x's coordinates and draws the remainder from
/// an independent power-law stream (values always fresh).
CooTensor
overlap_operand(const CooTensor& x, unsigned pct)
{
    PowerLawConfig config;
    config.dims = {1u << 16, 1u << 16, 128};
    config.nnz = x.nnz();
    config.uniform_mode = {false, false, true};
    config.seed = 43;
    const CooTensor fresh = generate_powerlaw(config);
    Rng rng(6);
    CooTensor y(x.dims());
    const Size shared = x.nnz() * pct / 100;
    for (Size p = 0; p < shared; ++p)
        y.append(x.coordinate(p), rng.next_float() + 0.5f);
    for (Size p = shared; p < x.nnz(); ++p)
        y.append(fresh.coordinate(p), rng.next_float() + 0.5f);
    y.canonicalize(DuplicatePolicy::kSum);
    return y;
}

/// General-pattern TEW through the parallel merge engine, swept over the
/// fraction of coordinates the two patterns share (Arg(1), percent).
/// The label records the comparison path the engine picked.
void
BM_TewCooGeneral(benchmark::State& state)
{
    const CooTensor x = bench_tensor(static_cast<Size>(state.range(0)));
    const CooTensor y =
        overlap_operand(x, static_cast<unsigned>(state.range(1)));
    merge::MergePath path = merge::MergePath::kMerged64Key;
    Size out_nnz = 0;
    for (auto _ : state) {
        CooTensor z = tew_coo_general(x, y, EwOp::kAdd, &path);
        out_nnz = z.nnz();
        benchmark::DoNotOptimize(z.values().data());
    }
    state.SetLabel(merge::merge_path_name(path));
    state.counters["out_nnz"] = static_cast<double>(out_nnz);
    state.SetItemsProcessed(state.iterations() * (x.nnz() + y.nnz()));
}
BENCHMARK(BM_TewCooGeneral)
    ->Args({1 << 15, 0})
    ->Args({1 << 15, 50})
    ->Args({1 << 15, 100})
    ->Args({1 << 18, 50});

/// Serial two-pointer reference on the same workload: the baseline the
/// merge engine is measured against (items/s ratio = speedup).
void
BM_TewCooGeneralSerial(benchmark::State& state)
{
    const CooTensor x = bench_tensor(static_cast<Size>(state.range(0)));
    const CooTensor y =
        overlap_operand(x, static_cast<unsigned>(state.range(1)));
    for (auto _ : state) {
        CooTensor z = tew_coo_general_serial(x, y, EwOp::kAdd);
        benchmark::DoNotOptimize(z.values().data());
    }
    state.SetLabel("serial-2ptr");
    state.SetItemsProcessed(state.iterations() * (x.nnz() + y.nnz()));
}
BENCHMARK(BM_TewCooGeneralSerial)
    ->Args({1 << 15, 50})
    ->Args({1 << 18, 50});

void
BM_TsCoo(benchmark::State& state)
{
    const CooTensor x = bench_tensor(static_cast<Size>(state.range(0)));
    CooTensor y = x;
    for (auto _ : state) {
        ts_values(TsOp::kMul, x.values().data(), y.values().data(),
                  x.nnz(), 1.0001f);
        benchmark::DoNotOptimize(y.values().data());
    }
    state.SetItemsProcessed(state.iterations() * x.nnz());
    state.SetBytesProcessed(state.iterations() * 8 * x.nnz());
}
BENCHMARK(BM_TsCoo)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18);

void
BM_TtvCoo(benchmark::State& state)
{
    const CooTensor x = bench_tensor(static_cast<Size>(state.range(0)));
    Rng rng(2);
    DenseVector v = DenseVector::random(x.dim(2), rng);
    CooTtvPlan plan = ttv_plan_coo(x, 2);
    CooTensor out = plan.out_pattern;
    for (auto _ : state) {
        ttv_exec_coo(plan, v, out);
        benchmark::DoNotOptimize(out.values().data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * x.nnz());
}
BENCHMARK(BM_TtvCoo)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18);

/// Plan construction cost (sort + fiber detection + bulk-filled output
/// pattern): the pre-processing side of TTV the merge-engine PR moved
/// from per-fiber appends to count/scan/fill.
void
BM_TtvPlanBuild(benchmark::State& state)
{
    const CooTensor x = bench_tensor(static_cast<Size>(state.range(0)));
    Size fibers = 0;
    for (auto _ : state) {
        CooTtvPlan plan = ttv_plan_coo(x, 2);
        fibers = plan.fibers.num_fibers();
        benchmark::DoNotOptimize(plan.out_pattern.values().data());
    }
    state.counters["fibers"] = static_cast<double>(fibers);
    state.SetItemsProcessed(state.iterations() * x.nnz());
}
BENCHMARK(BM_TtvPlanBuild)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18);

void
BM_TtvHicoo(benchmark::State& state)
{
    const CooTensor x = bench_tensor(static_cast<Size>(state.range(0)));
    Rng rng(2);
    DenseVector v = DenseVector::random(x.dim(2), rng);
    HicooTtvPlan plan = ttv_plan_hicoo(x, 2);
    HiCooTensor out = plan.out_pattern;
    for (auto _ : state) {
        ttv_exec_hicoo(plan, v, out);
        benchmark::DoNotOptimize(out.values().data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * x.nnz());
}
BENCHMARK(BM_TtvHicoo)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18);

void
BM_TtmCooRankSweep(benchmark::State& state)
{
    const CooTensor x = bench_tensor(1 << 15);
    const Size rank = static_cast<Size>(state.range(0));
    Rng rng(3);
    DenseMatrix u = DenseMatrix::random(x.dim(2), rank, rng);
    CooTtmPlan plan = ttm_plan_coo(x, 2, rank);
    ScooTensor out = plan.out_pattern;
    for (auto _ : state) {
        ttm_exec_coo(plan, u, out);
        benchmark::DoNotOptimize(out.values().data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * x.nnz() * rank);
}
BENCHMARK(BM_TtmCooRankSweep)->Arg(4)->Arg(16)->Arg(64);

void
BM_MttkrpCoo(benchmark::State& state)
{
    const CooTensor x = bench_tensor(static_cast<Size>(state.range(0)));
    Rng rng(4);
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < x.order(); ++m)
        mats.push_back(DenseMatrix::random(x.dim(m), 16, rng));
    FactorList factors = {&mats[0], &mats[1], &mats[2]};
    DenseMatrix out(x.dim(0), 16);
    MttkrpVariant variant = MttkrpVariant::kAtomic;
    for (auto _ : state) {
        variant = mttkrp_coo(x, factors, 0, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetLabel(mttkrp_variant_name(variant));
    state.SetItemsProcessed(state.iterations() * 3 * x.nnz() * 16);
    set_flops(state, 3.0 * static_cast<double>(x.nnz()) * 16);
}
BENCHMARK(BM_MttkrpCoo)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18);

/// Crossover ablation: sweep the output-mode dimension at fixed nnz so
/// the auto-dispatch flips from privatized (small I_mode) to atomic
/// (replicated buffers too large / too sparse in output rows).  The
/// label records the variant the contention policy (mttkrp_contention)
/// chose at each point.
void
BM_MttkrpCooDimSweep(benchmark::State& state)
{
    const Index dim0 = Index{1} << static_cast<unsigned>(state.range(0));
    PowerLawConfig config;
    config.dims = {dim0, 1u << 12, 128};
    config.nnz = 1 << 15;
    config.uniform_mode = {false, false, true};
    config.seed = 42;
    const CooTensor x = generate_powerlaw(config);
    Rng rng(4);
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < x.order(); ++m)
        mats.push_back(DenseMatrix::random(x.dim(m), 16, rng));
    FactorList factors = {&mats[0], &mats[1], &mats[2]};
    DenseMatrix out(x.dim(0), 16);
    MttkrpVariant variant = MttkrpVariant::kAtomic;
    for (auto _ : state) {
        variant = mttkrp_coo(x, factors, 0, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetLabel(mttkrp_variant_name(variant));
    state.SetItemsProcessed(state.iterations() * 3 * x.nnz() * 16);
    set_flops(state, 3.0 * static_cast<double>(x.nnz()) * 16);
}
BENCHMARK(BM_MttkrpCooDimSweep)->Arg(8)->Arg(12)->Arg(16)->Arg(20)->Arg(24);

void
BM_MttkrpHicooBlockSweep(benchmark::State& state)
{
    const CooTensor x = bench_tensor(1 << 15);
    const unsigned bits = static_cast<unsigned>(state.range(0));
    const HiCooTensor h = coo_to_hicoo(x, bits);
    Rng rng(5);
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < x.order(); ++m)
        mats.push_back(DenseMatrix::random(x.dim(m), 16, rng));
    FactorList factors = {&mats[0], &mats[1], &mats[2]};
    DenseMatrix out(x.dim(0), 16);
    MttkrpVariant variant = MttkrpVariant::kAtomic;
    for (auto _ : state) {
        variant = mttkrp_hicoo(h, factors, 0, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetLabel(mttkrp_variant_name(variant));
    state.SetItemsProcessed(state.iterations() * 3 * x.nnz() * 16);
    state.counters["blocks"] = static_cast<double>(h.num_blocks());
    set_flops(state, 3.0 * static_cast<double>(x.nnz()) * 16);
}
BENCHMARK(BM_MttkrpHicooBlockSweep)->Arg(3)->Arg(5)->Arg(7)->Arg(8);

void
BM_CooSortLex(benchmark::State& state)
{
    const CooTensor shuffled =
        shuffled_tensor(static_cast<Size>(state.range(0)));
    for (auto _ : state) {
        state.PauseTiming();
        CooTensor work = shuffled;
        state.ResumeTiming();
        work.sort_lexicographic();
        benchmark::DoNotOptimize(work.values().data());
    }
    state.SetItemsProcessed(state.iterations() * shuffled.nnz());
}
BENCHMARK(BM_CooSortLex)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18);

void
BM_CooSortMorton(benchmark::State& state)
{
    const CooTensor shuffled =
        shuffled_tensor(static_cast<Size>(state.range(0)));
    for (auto _ : state) {
        state.PauseTiming();
        CooTensor work = shuffled;
        state.ResumeTiming();
        work.sort_morton(7);
        benchmark::DoNotOptimize(work.values().data());
    }
    state.SetItemsProcessed(state.iterations() * shuffled.nnz());
}
BENCHMARK(BM_CooSortMorton)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18);

/// Restores the process-wide SIMD dispatch decision on scope exit so a
/// forced-ISA sweep cannot leak into later benchmarks.
struct ScopedIsa {
    explicit ScopedIsa(simd::Isa isa) : prev(simd::active_isa())
    {
        simd::set_isa(isa);
    }
    ~ScopedIsa() { simd::set_isa(prev); }
    simd::Isa prev;
};

/// Contiguous rank-loop stripe throughput under forced SIMD dispatch:
/// the MTTKRP inner pattern (acc_row += a_row * b_row over rank-R
/// stripes at scattered row addresses).  Arg(0) = rank, Arg(1) = ISA
/// (0 scalar, 1 avx2, 2 avx512); unsupported ISAs are skipped.  The
/// scalar-vs-avx2 items/s ratio at a given rank is the vector speedup.
void
BM_RankLoop(benchmark::State& state)
{
    const Size rank = static_cast<Size>(state.range(0));
    const auto isa = static_cast<simd::Isa>(state.range(1));
    if (!simd::isa_supported(isa)) {
        state.SkipWithError("ISA not supported on this CPU");
        return;
    }
    ScopedIsa guard(isa);
    const Size rows = 1 << 10;
    const Size stripes = 1 << 15;
    Rng rng(7);
    std::vector<Value> ta(rows * rank), tb(rows * rank);
    std::vector<Value> acc(rows * rank, 0);
    for (auto& v : ta)
        v = rng.next_float();
    for (auto& v : tb)
        v = rng.next_float();
    std::vector<Index> ia(stripes), ib(stripes), iacc(stripes);
    for (Size i = 0; i < stripes; ++i) {
        ia[i] = rng.next_index(rows);
        ib[i] = rng.next_index(rows);
        iacc[i] = rng.next_index(rows);
    }
    for (auto _ : state) {
        for (Size i = 0; i < stripes; ++i)
            simd::vfma_rows(isa, acc.data() + iacc[i] * rank,
                            ta.data() + ia[i] * rank,
                            tb.data() + ib[i] * rank, rank);
        benchmark::DoNotOptimize(acc.data());
    }
    state.SetLabel(simd::isa_name(isa));
    state.SetItemsProcessed(state.iterations() * stripes * rank);
    set_flops(state, 2.0 * static_cast<double>(stripes) *
                         static_cast<double>(rank));
}
BENCHMARK(BM_RankLoop)
    ->ArgsProduct({{8, 16, 32, 64}, {0, 1, 2}});

/// Gathered rank-loop throughput: the TTV inner pattern (fiber dot of
/// contiguous values against vector entries addressed through an index
/// array).  Same Arg layout as BM_RankLoop.
void
BM_RankLoopGather(benchmark::State& state)
{
    const Size rank = static_cast<Size>(state.range(0));
    const auto isa = static_cast<simd::Isa>(state.range(1));
    if (!simd::isa_supported(isa)) {
        state.SkipWithError("ISA not supported on this CPU");
        return;
    }
    ScopedIsa guard(isa);
    const Size table_size = 1 << 12;
    const Size n = Size{1} << 15;
    const Size fibers = n / rank;
    Rng rng(8);
    std::vector<Value> x(n), table(table_size);
    for (auto& v : x)
        v = rng.next_float();
    for (auto& v : table)
        v = rng.next_float();
    std::vector<Index> idx(n);
    for (auto& i : idx)
        i = rng.next_index(table_size);
    std::vector<Value> out(fibers, 0);
    for (auto _ : state) {
        for (Size f = 0; f < fibers; ++f)
            out[f] = simd::vdot_gather(isa, x.data() + f * rank,
                                       idx.data() + f * rank,
                                       table.data(), rank);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetLabel(simd::isa_name(isa));
    state.SetItemsProcessed(state.iterations() * fibers * rank);
    set_flops(state, 2.0 * static_cast<double>(fibers) *
                         static_cast<double>(rank));
}
BENCHMARK(BM_RankLoopGather)
    ->ArgsProduct({{8, 16, 32, 64}, {0, 1, 2}});

/// Whole CP-ALS runs at a fixed sweep count (tolerance 0).
void
BM_CpAls(benchmark::State& state)
{
    const CooTensor x = bench_tensor(1 << 13);
    CpdOptions options;
    options.rank = 16;
    options.max_sweeps = 3;
    options.tolerance = 0.0;
    double fit = 0.0;
    for (auto _ : state) {
        CpdResult r = cp_als(x, options);
        fit = r.fit_history.back();
        benchmark::DoNotOptimize(r.factors.data());
    }
    state.counters["fit"] = fit;
    state.SetItemsProcessed(state.iterations() * options.max_sweeps *
                            x.order() * 3 * x.nnz() * options.rank);
}
BENCHMARK(BM_CpAls);

/// Full TTM chains (the Tucker core contraction), fused two-mode
/// endgame (Arg 1) against the stepwise sCOO chain (Arg 0).  Order-4
/// with uniformly large modes: the final two contractions then run over
/// mostly-singleton fibers, where the stepwise chain must materialize
/// and sort a stripe-expanded COO intermediate — the case the fused
/// kernel exists for.  (With a small trailing mode the intermediate
/// collapses and stepwise wins; see DESIGN.md.)
void
BM_TuckerChain(benchmark::State& state)
{
    Rng rng(9);
    const CooTensor x = CooTensor::random(
        {1u << 12, 1u << 12, 1u << 12, 1u << 12}, 1 << 13, rng);
    std::vector<DenseMatrix> mats;
    for (Size m = 0; m < x.order(); ++m)
        mats.push_back(DenseMatrix::random(x.dim(m), 8, rng));
    const bool fuse = state.range(0) != 0;
    Size out_nnz = 0;
    for (auto _ : state) {
        CooTensor core = ttm_chain(x, mats, kNoMode, fuse);
        out_nnz = core.nnz();
        benchmark::DoNotOptimize(core.values().data());
    }
    state.SetLabel(fuse ? "fused" : "stepwise");
    state.counters["out_nnz"] = static_cast<double>(out_nnz);
    state.SetItemsProcessed(state.iterations() * x.nnz());
}
BENCHMARK(BM_TuckerChain)->Arg(0)->Arg(1);

/// Dense-layer ablations on a 2^20 x 16 factor (64 MiB): Arg is the
/// thread count (0 = the OpenMP default), so Arg(1) against Arg(0) is the
/// serial-vs-block-parallel split of the dense layer.  The allocation
/// benchmarks take log2(rows) as a second argument: 2^15 x 16 (2 MiB)
/// stays on the heap, 2^20 x 16 is mapped (kDenseMapBytes).
constexpr Size kDenseBenchRows = Size{1} << 20;
constexpr Size kDenseBenchRank = 16;

/// Pins the thread count for one benchmark run; restores the default.
class BenchThreads {
  public:
    explicit BenchThreads(benchmark::State& state)
    {
        set_num_threads(static_cast<int>(state.range(0)));
        state.SetLabel("threads=" + std::to_string(num_threads()));
    }
    ~BenchThreads() { set_num_threads(0); }
};

void
set_dense_bytes(benchmark::State& state, Size rows)
{
    state.SetBytesProcessed(state.iterations() * rows * kDenseBenchRank *
                            kValueBytes);
}

/// Counter-based random init of a fresh factor (allocation included, as
/// in the suite's dense_init layer).
void
BM_DenseRandom(benchmark::State& state)
{
    BenchThreads threads(state);
    const Size rows = Size{1} << state.range(1);
    Rng rng(10);
    for (auto _ : state) {
        DenseMatrix m = DenseMatrix::random(rows, kDenseBenchRank, rng);
        benchmark::DoNotOptimize(m.data());
        benchmark::ClobberMemory();
    }
    set_dense_bytes(state, rows);
}
BENCHMARK(BM_DenseRandom)
    ->Args({1, 15})->Args({0, 15})->Args({1, 20})->Args({0, 20})
    ->UseRealTime();

/// Zero-initialized construction of a fresh output (allocation included,
/// as before every MTTKRP call that allocates its output).  A mapped
/// buffer arrives zeroed and is not touched here: its first-touch cost
/// moves to the first pass that writes it.
void
BM_DenseZero(benchmark::State& state)
{
    BenchThreads threads(state);
    const Size rows = Size{1} << state.range(1);
    for (auto _ : state) {
        DenseMatrix m(rows, kDenseBenchRank);
        benchmark::DoNotOptimize(m.data());
        benchmark::ClobberMemory();
    }
    set_dense_bytes(state, rows);
}
BENCHMARK(BM_DenseZero)
    ->Args({1, 15})->Args({0, 15})->Args({1, 20})->Args({0, 20})
    ->UseRealTime();

/// Block-ordered Gram matrix A^T A, the CP-ALS per-mode reduction.
void
BM_GramMatrix(benchmark::State& state)
{
    BenchThreads threads(state);
    Rng rng(11);
    const DenseMatrix a =
        DenseMatrix::random(kDenseBenchRows, kDenseBenchRank, rng);
    for (auto _ : state) {
        std::vector<double> g = gram_matrix(a);
        benchmark::DoNotOptimize(g.data());
    }
    set_dense_bytes(state, kDenseBenchRows);
    set_flops(state, static_cast<double>(kDenseBenchRows) *
                         kDenseBenchRank * (kDenseBenchRank + 1));
}
BENCHMARK(BM_GramMatrix)->Arg(1)->Arg(0)->UseRealTime();

/// The CP-ALS solve U = M V^-1 (matmul_small) over the same factor.
void
BM_CpAlsSolve(benchmark::State& state)
{
    BenchThreads threads(state);
    Rng rng(12);
    const DenseMatrix m =
        DenseMatrix::random(kDenseBenchRows, kDenseBenchRank, rng);
    std::vector<double> v_inv(kDenseBenchRank * kDenseBenchRank);
    for (auto& w : v_inv)
        w = rng.next_double() - 0.5;
    DenseMatrix u(kDenseBenchRows, kDenseBenchRank);
    for (auto _ : state) {
        matmul_small(m, v_inv, u);
        benchmark::DoNotOptimize(u.data());
        benchmark::ClobberMemory();
    }
    set_dense_bytes(state, 2 * kDenseBenchRows);
    set_flops(state, 2.0 * static_cast<double>(kDenseBenchRows) *
                         kDenseBenchRank * kDenseBenchRank);
}
BENCHMARK(BM_CpAlsSolve)->Arg(1)->Arg(0)->UseRealTime();

/// CP-ALS column normalization: block-ordered column norms, then one
/// division per element.  Each iteration normalizes a fresh copy of the
/// factor (the copy is outside the timing), so every pass sees the same
/// input.
void
BM_NormalizeColumns(benchmark::State& state)
{
    BenchThreads threads(state);
    Rng rng(13);
    const DenseMatrix a =
        DenseMatrix::random(kDenseBenchRows, kDenseBenchRank, rng);
    DenseMatrix work = a;
    for (auto _ : state) {
        state.PauseTiming();
        std::copy(a.data(), a.data() + a.rows() * a.cols(), work.data());
        state.ResumeTiming();
        std::vector<double> norms = normalize_columns(work);
        benchmark::DoNotOptimize(norms.data());
        benchmark::ClobberMemory();
    }
    // Read twice, written once.
    set_dense_bytes(state, 3 * kDenseBenchRows);
    set_flops(state, 3.0 * static_cast<double>(kDenseBenchRows) *
                         kDenseBenchRank);
}
BENCHMARK(BM_NormalizeColumns)->Arg(1)->Arg(0)->UseRealTime();

void
BM_CooToHicooConversion(benchmark::State& state)
{
    const CooTensor x = bench_tensor(static_cast<Size>(state.range(0)));
    for (auto _ : state) {
        HiCooTensor h = coo_to_hicoo(x, 7);
        benchmark::DoNotOptimize(h.nnz());
    }
    state.SetItemsProcessed(state.iterations() * x.nnz());
}
BENCHMARK(BM_CooToHicooConversion)->Arg(1 << 12)->Arg(1 << 15);

}  // namespace
