/// \file
/// oocore_s3: the streaming route.  Setup writes the regL (s3) stand-in
/// as PSTB v3; one iteration maps it and runs the budgeted MTTKRP (mode
/// `mode`, checkpointed after every partition), TTV (last mode) and
/// coalesce-to-PSTB twice: once under a `budget_kb` memory budget, which
/// forces the partition sweeps, and once unbudgeted, which takes the
/// in-memory route and is the baseline and oracle.  Checkpoints and
/// outputs live in the scratch directory on the checkout's disk.
#include <cstring>
#include <filesystem>
#include <optional>

#include "common/membudget.hpp"
#include "common/rng.hpp"
#include "core/stream.hpp"
#include "e2e.hpp"
#include "io/binary_io.hpp"

namespace e2e {

namespace {

using namespace pasta;

bool
same_tensor(const CooTensor& a, const CooTensor& b)
{
    if (a.dims() != b.dims() || a.nnz() != b.nnz())
        return false;
    for (Size m = 0; m < a.order(); ++m)
        if (a.mode_indices(m) != b.mode_indices(m))
            return false;
    return std::memcmp(a.values().data(), b.values().data(),
                       a.nnz() * sizeof(Value)) == 0;
}

class Oocore : public Workload {
  public:
    explicit Oocore(const Options& opts)
        : opts_(opts),
          spec_(find_dataset(opts.text("dataset"))),
          scale_(opts.num("scale")),
          rank_(static_cast<Size>(opts.num("rank"))),
          mode_(static_cast<Size>(opts.num("mode"))),
          budget_(static_cast<std::uint64_t>(opts.num("budget_kb")) << 10),
          stem_(opts.dir + "/oocore_" + spec_.id)
    {
    }

    void setup(Recorder& rec) override
    {
        const CooTensor x = synthesize(spec_, scale_, opts_.seed);
        const double t0 = now_s();
        write_binary_file(stem_ + ".pstb", x);
        rec.sample("io.write_s", now_s() - t0);
    }

    void iterate(Recorder& rec, bool check) override
    {
        std::optional<MappedCooTensor> map;
        rec.timed("io.map", [&] { map.emplace(stem_ + ".pstb"); });
        const MappedCooTensor& mapped = *map;
        const Size last = mapped.order() - 1;
        std::vector<DenseMatrix> mats;
        DenseVector v;
        rec.timed("core.dense_init", [&] {
            Rng rng(opts_.seed * 31 + 7);
            for (Size m = 0; m < mapped.order(); ++m)
                mats.push_back(DenseMatrix::random(mapped.dim(m), rank_, rng));
            v = DenseVector::random(mapped.dim(last), rng);
        });
        FactorList factors;
        for (const auto& m : mats)
            factors.push_back(&m);

        Pass streamed = run_pass(rec, mapped, factors, v, budget_, "stream");
        Pass inmem = run_pass(rec, mapped, factors, v, 0, "inmem");

        const double out_mb =
            static_cast<double>(streamed.mttkrp.storage_bytes()) / 1048576.0;
        rec.sample("core.stream.partitions.mttkrp",
                   static_cast<double>(streamed.mttkrp_route.partitions));
        rec.sample("core.stream.partitions.ttv",
                   static_cast<double>(streamed.ttv_route.partitions));
        rec.sample("core.stream.partitions.coalesce",
                   static_cast<double>(streamed.coalesce_route.partitions));
        rec.sample("core.stream.checkpoint_mb",
                   out_mb * static_cast<double>(
                                streamed.mttkrp_route.partitions));
        rec.sample("core.stream.overhead_x.mttkrp",
                   streamed.mttkrp_s / inmem.mttkrp_s);
        rec.sample("common.membudget.peak_mb",
                   static_cast<double>(streamed.peak) / 1048576.0);

        TensorStats stats;
        stats.order = mapped.order();
        stats.nnz = mapped.nnz();
        stats.num_fibers = streamed.ttv.nnz();  // one output per fiber
        const KernelCost mttkrp_cost =
            kernel_cost(Kernel::kMttkrp, Format::kCoo, stats, rank_);
        const KernelCost ttv_cost =
            kernel_cost(Kernel::kTtv, Format::kCoo, stats, rank_);
        rec.cells.add("MTTKRP/stream", "MTTKRP", mode_, mttkrp_cost,
                      streamed.mttkrp_s);
        rec.cells.add("MTTKRP/inmem", "MTTKRP", mode_, mttkrp_cost,
                      inmem.mttkrp_s);
        rec.cells.add("TTV/stream", "TTV", last, ttv_cost, streamed.ttv_s);
        rec.cells.add("TTV/inmem", "TTV", last, ttv_cost, inmem.ttv_s);

        if (check)
            rec.untimed([&] { verify(rec, mapped, factors, streamed, inmem); });
    }

  private:
    struct Pass {
        stream::StreamDecision mttkrp_route, ttv_route, coalesce_route;
        DenseMatrix mttkrp;
        CooTensor ttv;
        std::string coalesced;
        double mttkrp_s = 0, ttv_s = 0;
        std::uint64_t peak = 0;
    };

    /// The three budgeted calls under `budget` bytes (0 = unlimited).
    Pass run_pass(Recorder& rec, const MappedCooTensor& mapped,
                  const FactorList& factors, const DenseVector& v,
                  std::uint64_t budget, const std::string& route)
    {
        Pass pass;
        rec.timed("core.dense_init", [&] {
            pass.mttkrp = DenseMatrix(mapped.dim(mode_), rank_);
        });
        auto& governor = membudget::MemGovernor::instance();
        governor.configure(budget);
        governor.reset_peak();
        const std::string layer = "core.stream." + route;
        stream::StreamOptions sopts;
        sopts.checkpoint_path = stem_ + ".mttkrp.ckpt";
        pass.mttkrp_s = rec.timed((layer + ".mttkrp").c_str(), [&] {
            pass.mttkrp_route = stream::mttkrp_coo_budgeted(
                mapped, factors, mode_, pass.mttkrp, sopts);
            // A finished checkpoint must not make the next sweep resume.
            std::filesystem::remove(sopts.checkpoint_path);
        });
        pass.ttv_s = rec.timed((layer + ".ttv").c_str(), [&] {
            pass.ttv_route = stream::ttv_coo_budgeted(
                mapped, v, mapped.order() - 1, pass.ttv);
        });
        pass.coalesced = stem_ + "." + route + ".coalesced.pstb";
        rec.timed((layer + ".coalesce").c_str(), [&] {
            pass.coalesce_route =
                stream::coalesce_budgeted(mapped, pass.coalesced);
        });
        pass.peak = governor.peak();
        governor.configure(0);
        return pass;
    }

    void verify(Recorder& rec, const MappedCooTensor& mapped,
                const FactorList& factors, const Pass& streamed,
                const Pass& inmem)
    {
        rec.outcome.check(streamed.mttkrp_route.streamed &&
                              streamed.ttv_route.streamed &&
                              streamed.coalesce_route.streamed,
                          "the budget did not force the streaming route");
        rec.outcome.check(!inmem.mttkrp_route.streamed &&
                              !inmem.ttv_route.streamed &&
                              !inmem.coalesce_route.streamed,
                          "the unbudgeted pass did not run in memory");
        rec.outcome.check(streamed.peak <= budget_,
                          "governor peak " + std::to_string(streamed.peak) +
                              " exceeds the budget");
        rec.outcome.check(same_tensor(streamed.ttv, inmem.ttv),
                          "streamed TTV differs from in-memory TTV");
        rec.outcome.check(same_tensor(read_binary_file(streamed.coalesced),
                                      read_binary_file(inmem.coalesced)),
                          "streamed coalesce differs from in-memory coalesce");
        const CooTensor x = mapped.to_coo();
        for (const Pass* pass : {&streamed, &inmem})
            rec.outcome.check(
                diff_mttkrp_touched(x, factors, mode_, pass->mttkrp),
                "MTTKRP " + pass->mttkrp_route.variant);
    }

    const Options& opts_;
    const DatasetSpec& spec_;
    double scale_;
    Size rank_;
    Size mode_;
    std::uint64_t budget_;
    std::string stem_;
};

}  // namespace

std::unique_ptr<Workload>
make_oocore(const Options& opts)
{
    return std::make_unique<Oocore>(opts);
}

}  // namespace e2e
