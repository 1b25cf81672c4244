/// \file
/// Bounded-memory (out-of-core) campaign driver.
///
/// Exercises the memory-governor + streaming-kernel stack end to end:
/// a Table II dataset is synthesized, written as PSTB v3, mapped
/// read-only (address space, not RAM), and the budgeted MTTKRP / TTV /
/// coalesce entry points run under the guarded-trial harness with
/// $PASTA_MEM_BYTES armed.  With a budget below the tensor footprint
/// every kernel degrades to its partition-sweep variant; the table the
/// binary prints and the JSONL journal both carry the routing variant
/// (e.g. "mttkrp_stream_p16"), the partition progress, and the trial's
/// peak governor-metered bytes.
///
/// The MTTKRP trial checkpoints per partition (PSCK file in the cache
/// dir) and journals per-partition progress lines, so killing the binary
/// mid-sweep and rerunning it resumes at the last completed partition —
/// scripts/check_oocore.sh asserts exactly that.
///
/// Extra environment (on top of the bench_common set):
///   PASTA_OOCORE_DATASET  Table II id/name to synthesize (default "s1")
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_common.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "common/membudget.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/stream.hpp"
#include "harness/journal.hpp"
#include "harness/trial.hpp"
#include "io/binary_io.hpp"

namespace {

using namespace pasta;

/// One row of the report table.
struct OocoreRow {
    std::string kernel;
    std::string variant;
    Size partitions = 0;
    Size resumed_from = 0;
    double seconds = 0;
    double mem_peak = 0;
    std::string status;
};

/// Journals a per-partition progress line (last-wins keyed on the trial,
/// so the terminal success line replaces it).  A killed run leaves the
/// latest of these as the trial's journal state.
void
journal_progress(harness::RunJournal& journal, const std::string& id,
                 const char* kernel, Size done, Size total)
{
    if (!journal.enabled())
        return;
    harness::JournalEntry entry;
    entry.tensor_id = id;
    entry.kernel = kernel;
    entry.format = "OOC";
    entry.ok = false;
    entry.error = "in progress";
    entry.failure_class = "progress";
    entry.partitions_done = static_cast<int>(done);
    entry.partitions_total = static_cast<int>(total);
    entry.mem_peak = static_cast<double>(
        membudget::MemGovernor::instance().peak());
    journal.append(entry);
}

/// Runs one guarded out-of-core trial and records it in the journal and
/// the report table.  `body` performs the sweep and fills `decision`.
void
run_oocore_trial(harness::RunJournal& journal,
                 const harness::TrialPolicy& policy, const std::string& id,
                 const char* kernel, const stream::StreamDecision& decision,
                 std::vector<OocoreRow>& rows,
                 const std::function<double()>& body)
{
    if (journal.enabled()) {
        const harness::JournalEntry* done = journal.find(id, kernel, "OOC");
        if (done && done->ok) {
            rows.push_back({kernel, done->variant,
                            static_cast<Size>(done->partitions_total), 0,
                            done->seconds, done->mem_peak, "journaled"});
            return;
        }
    }

    membudget::MemGovernor::instance().reset_peak();
    const harness::TrialResult trial = harness::run_guarded_trial(
        std::string(kernel) + "/OOC on " + id, body, policy);
    const double mem_peak =
        static_cast<double>(membudget::MemGovernor::instance().peak());

    harness::JournalEntry entry;
    entry.tensor_id = id;
    entry.kernel = kernel;
    entry.format = "OOC";
    entry.ok = trial.ok;
    entry.seconds = trial.seconds;
    entry.attempts = trial.attempts;
    entry.error = trial.error;
    entry.failure_class = harness::failure_class(trial);
    entry.variant = decision.variant;
    entry.mem_peak = mem_peak;
    entry.partitions_done =
        static_cast<int>(trial.ok ? decision.partitions : 0);
    entry.partitions_total = static_cast<int>(decision.partitions);
    journal.append(entry);

    rows.push_back({kernel, decision.variant, decision.partitions,
                    decision.resumed_from, trial.seconds, mem_peak,
                    trial.ok ? "ok" : entry.failure_class});
}

}  // namespace

int
main()
{
    using namespace pasta;
    const bench::BenchOptions options = bench::options_from_env();

    const DatasetSpec& spec =
        find_dataset(config::text("PASTA_OOCORE_DATASET"));

    std::error_code ec;
    std::filesystem::create_directories(options.cache_dir, ec);
    const std::string stem = options.cache_dir + "/oocore_" + spec.id;

    // Synthesize once and persist as PSTB v3; reruns (the resume case)
    // reuse the file so the mapped view is byte-stable across kills.
    const std::string tensor_path = stem + ".pstb";
    if (!std::filesystem::exists(tensor_path)) {
        PASTA_LOG_INFO << "oocore: synthesizing " << spec.id << " at scale "
                       << options.scale;
        write_binary_file(tensor_path,
                          synthesize_dataset(spec, options.scale));
    }
    MappedCooTensor mapped(tensor_path);
    std::printf("oocore dataset %s: order %zu, %zu nnz, %zu file bytes, "
                "budget %llu bytes%s\n",
                spec.id.c_str(), mapped.order(), mapped.nnz(),
                mapped.file_bytes(),
                static_cast<unsigned long long>(
                    membudget::MemGovernor::instance().budget()),
                membudget::MemGovernor::instance().enabled()
                    ? ""
                    : " (unlimited; set PASTA_MEM_BYTES to force "
                      "streaming)");

    harness::RunJournal journal;
    if (options.journal_enabled)
        journal = harness::RunJournal(stem + ".journal.jsonl");

    const harness::TrialPolicy& policy = options.trial_policy;
    std::vector<OocoreRow> rows;
    const std::string& id = spec.id;

    // ---- MTTKRP (mode 0), checkpointed per partition ----
    {
        stream::StreamDecision decision;
        run_oocore_trial(
            journal, policy, id, "MTTKRP", decision, rows, [&] {
                Rng rng(23);
                std::vector<DenseMatrix> mats;
                for (Size m = 0; m < mapped.order(); ++m)
                    mats.push_back(DenseMatrix::random(mapped.dim(m),
                                                       options.rank, rng));
                FactorList factors;
                for (const auto& m : mats)
                    factors.push_back(&m);
                DenseMatrix out(mapped.dim(0), options.rank);
                stream::StreamOptions sopts;
                sopts.checkpoint_path = stem + ".mttkrp.ckpt";
                sopts.progress = [&](Size done, Size total) {
                    journal_progress(journal, id, "MTTKRP", done, total);
                };
                Timer timer;
                timer.start();
                decision = stream::mttkrp_coo_budgeted(mapped, factors, 0,
                                                       out, sopts);
                return timer.elapsed_seconds();
            });
        // The sweep finished; the next run must start fresh.
        std::filesystem::remove(stem + ".mttkrp.ckpt", ec);
    }

    // ---- TTV (contract the last mode) ----
    {
        stream::StreamDecision decision;
        run_oocore_trial(
            journal, policy, id, "TTV", decision, rows, [&] {
                const Size mode = mapped.order() - 1;
                Rng rng(31);
                DenseVector v = DenseVector::random(mapped.dim(mode), rng);
                CooTensor out;
                stream::StreamOptions sopts;
                sopts.progress = [&](Size done, Size total) {
                    journal_progress(journal, id, "TTV", done, total);
                };
                Timer timer;
                timer.start();
                decision =
                    stream::ttv_coo_budgeted(mapped, v, mode, out, sopts);
                return timer.elapsed_seconds();
            });
    }

    // ---- Streamed coalesce to a fresh PSTB v3 file ----
    {
        stream::StreamDecision decision;
        const std::string out_path = stem + ".coalesced.pstb";
        run_oocore_trial(
            journal, policy, id, "COALESCE", decision, rows, [&] {
                stream::StreamOptions sopts;
                sopts.progress = [&](Size done, Size total) {
                    journal_progress(journal, id, "COALESCE", done, total);
                };
                Timer timer;
                timer.start();
                decision =
                    stream::coalesce_budgeted(mapped, out_path, sopts);
                return timer.elapsed_seconds();
            });
        std::filesystem::remove(out_path, ec);
    }

    std::printf("\n%-10s %-22s %10s %8s %12s %14s %-10s\n", "kernel",
                "variant", "partitions", "resumed", "seconds", "mem_peak",
                "status");
    for (const auto& row : rows)
        std::printf("%-10s %-22s %10zu %8zu %12.6f %14.0f %-10s\n",
                    row.kernel.c_str(), row.variant.c_str(),
                    row.partitions, row.resumed_from, row.seconds,
                    row.mem_peak, row.status.c_str());

    bool failed = false;
    for (const auto& row : rows)
        failed = failed || (row.status != "ok" && row.status != "journaled");
    return failed ? 1 : 0;
}
