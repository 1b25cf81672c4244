#include "serve/executor.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/dense.hpp"
#include "io/binary_io.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/ttv.hpp"
#include "obs/trace.hpp"

namespace pasta::serve {

namespace {

std::uint64_t
checksum_values(const Value* data, Size n)
{
    return fnv1a64(data, n * sizeof(Value));
}

}  // namespace

Executor::Executor(const ServeOptions& options) : options_(options)
{
    if (options_.cache_bytes != 0)
        cache_ = std::make_unique<PlanCache>(options_.cache_bytes);
}

std::shared_ptr<const Plan>
Executor::plan_for(ServeJob& job)
{
    if (job.fingerprint == 0)
        job.fingerprint = tensor_fingerprint(*job.tensor);
    auto builder = [&job, this] {
        return build_plan(*job.tensor, job.kernel, job.format, job.mode,
                          options_.block_bits);
    };
    if (!cache_ || job.degraded) {
        // Degraded (OOM retry) lane: empty the cache so the rebuild has
        // the whole budget, then build without caching — the smallest
        // footprint this job can run with.
        if (cache_ && job.degraded)
            cache_->trim(0);
        job.cache_hit = false;
        return builder();
    }
    const std::string key =
        plan_key(job.fingerprint, job.kernel, job.format, job.mode,
                 job.rank, options_.block_bits);
    bool hit = false;
    std::shared_ptr<const Plan> plan =
        cache_->get_or_build(key, builder, &hit);
    job.cache_hit = hit;
    return plan;
}

ExecResult
Executor::execute(ServeJob& job)
{
    PASTA_CHECK_MSG(job.tensor, "serve job " << job.id << " has no tensor");
    const CooTensor& x = *job.tensor;
    PASTA_CHECK_MSG(job.mode < x.order(),
                    "serve job mode " << job.mode << " out of range for "
                                      << x.order() << "-order tensor");
    ExecResult result;
    Rng rng(job.operand_seed);
    switch (job.kernel) {
      case ServeKernel::kTtv: {
        std::shared_ptr<const Plan> plan = plan_for(job);
        result.cache_hit = job.cache_hit;
        DenseVector v = DenseVector::random(x.dim(job.mode), rng);
        if (job.format == ServeFormat::kCoo) {
            CooTensor out = plan->ttv_coo->out_pattern;
            ttv_exec_coo(*plan->ttv_coo, v, out);
            result.checksum =
                checksum_values(out.values().data(), out.nnz());
        } else {
            HiCooTensor out = plan->ttv_hicoo->out_pattern;
            ttv_exec_hicoo(*plan->ttv_hicoo, v, out);
            result.checksum =
                checksum_values(out.values().data(), out.nnz());
        }
        break;
      }
      case ServeKernel::kMttkrp: {
        std::vector<DenseMatrix> mats;
        mats.reserve(x.order());
        for (Size m = 0; m < x.order(); ++m)
            mats.push_back(DenseMatrix::random(x.dim(m), job.rank, rng));
        FactorList factors;
        for (const auto& m : mats)
            factors.push_back(&m);
        DenseMatrix out(x.dim(job.mode), job.rank);
        if (job.format == ServeFormat::kCoo) {
            // No plan to cache; the privatized schedule is deterministic
            // at any fixed thread count.
            mttkrp_coo_privatized(x, factors, job.mode, out);
        } else {
            std::shared_ptr<const Plan> plan = plan_for(job);
            result.cache_hit = job.cache_hit;
            mttkrp_hicoo(*plan->mttkrp_hicoo, factors, job.mode, out);
        }
        result.checksum = checksum_values(
            out.data(), out.rows() * out.cols());
        break;
      }
    }
    return result;
}

}  // namespace pasta::serve
