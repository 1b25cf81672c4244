/// \file
/// pasta_e2e: one end-to-end benchmark workload in one process.
///
///   pasta_e2e --workload W --seed N --seconds S --trace 0|1 --dir D
///             [--set key=value ...]
///
/// Builds every input from the seed (setup), then measures iterations
/// until S seconds have passed and at least `min_iters` ran; the first
/// iteration also checks every output, outside its timed wall.  The
/// setup runs `setup_reps` times in all, the repeats spread over the S
/// seconds and not counted in them; setup_s is their median.  wall_s
/// sums, over the parts of an iteration (Recorder::part), each part's
/// median time.  With --trace 1, every other iteration runs with
/// PASTA_TRACE=full semantics (spans and counters armed) and its spans
/// are folded into per-layer self times; the untraced iterations in
/// between give the tracing overhead.  Prints one JSON object as the
/// last line of stdout; exits 1 when any check failed.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "e2e.hpp"
#include "obs/counters.hpp"
#include "roofline/ert.hpp"
#include "simd/simd.hpp"

namespace {

using namespace e2e;

Options
parse_args(int argc, char** argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        PASTA_CHECK_MSG(i + 1 < argc, "missing value after " << arg);
        const std::string value = argv[++i];
        if (arg == "--workload") {
            opts.workload = value;
        } else if (arg == "--seed") {
            opts.seed = std::stoull(value);
        } else if (arg == "--seconds") {
            opts.seconds = std::stod(value);
        } else if (arg == "--trace") {
            PASTA_CHECK_MSG(value == "0" || value == "1",
                            "--trace takes 0 or 1");
            opts.trace = value == "1";
        } else if (arg == "--dir") {
            opts.dir = value;
        } else if (arg == "--set") {
            const std::size_t eq = value.find('=');
            PASTA_CHECK_MSG(eq != std::string::npos,
                            "--set takes key=value, got " << value);
            opts.params[value.substr(0, eq)] = value.substr(eq + 1);
        } else {
            PASTA_CHECK_MSG(false, "unknown argument " << arg);
        }
    }
    PASTA_CHECK_MSG(!opts.workload.empty() && !opts.dir.empty(),
                    "--workload and --dir are required");
    PASTA_CHECK_MSG(opts.seconds > 0, "--seconds must be positive");
    return opts;
}

std::unique_ptr<Workload>
make_workload(const Options& opts)
{
    if (opts.workload == "suite_fig4")
        return make_suite_fig4(opts);
    if (opts.workload == "cpd_mttkrp_bound" ||
        opts.workload == "cpd_factor_bound")
        return make_cpd(opts);
    if (opts.workload == "serve_zipf")
        return make_serve_zipf(opts);
    if (opts.workload == "oocore_s3")
        return make_oocore(opts);
    throw pasta::PastaError("unknown workload " + opts.workload);
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string
cpu_model()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

std::string
fs_type(const std::string& dir)
{
    struct statfs st{};
    if (statfs(dir.c_str(), &st) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
      case 0xEF53: return "ext4";
      case 0x01021994: return "tmpfs";
      case 0x58465342: return "xfs";
      case 0x9123683E: return "btrfs";
      case 0x794C7630: return "overlayfs";
      default: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%lx",
                      static_cast<unsigned long>(st.f_type));
        return buf;
      }
    }
}

/// Sum over the parts of an iteration of each part's median seconds.
double
sum_of_medians(const std::map<std::string, std::vector<double>>& parts)
{
    double total = 0;
    for (const auto& [name, seconds] : parts)
        total += median(seconds);
    return total;
}

/// Label occurrence shares of `key` in the counter registry.
std::map<std::string, double>
label_shares(const std::string& key)
{
    std::map<std::string, double> shares;
    double total = 0;
    for (const auto& label : pasta::obs::snapshot_counters().labels) {
        if (label.key != key)
            continue;
        for (const auto& [value, count] : label.counts) {
            shares[value] += static_cast<double>(count);
            total += static_cast<double>(count);
        }
    }
    for (auto& [value, share] : shares)
        share /= total;
    return shares;
}

constexpr pasta::Kernel kKernels[] = {pasta::Kernel::kTew, pasta::Kernel::kTs,
                                      pasta::Kernel::kTtv, pasta::Kernel::kTtm,
                                      pasta::Kernel::kMttkrp};

std::string
lower(std::string s)
{
    for (auto& c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/// Per-layer metric name of a layer: the unit suffix goes on the second
/// dotted component ("kernels.exec.tew.coo" -> "kernels.exec_s.tew.coo").
std::string
metric_name(const std::string& layer, const char* suffix)
{
    const std::size_t first = layer.find('.');
    const std::size_t second = first == std::string::npos
                                   ? std::string::npos
                                   : layer.find('.', first + 1);
    if (second == std::string::npos)
        return layer + suffix;
    return layer.substr(0, second) + suffix + layer.substr(second);
}

}  // namespace

int
main(int argc, char** argv)
{
    using pasta::obs::TraceMode;
    Options opts;
    Recorder rec;
    std::map<std::string, double> e2e_metrics, layers, detail;
    Json host;
    try {
        opts = parse_args(argc, argv);
        std::filesystem::create_directories(opts.dir);
        pasta::obs::set_mode(TraceMode::kOff);
        const std::size_t setup_reps =
            static_cast<std::size_t>(opts.num("setup_reps"));
        const std::size_t min_iters =
            static_cast<std::size_t>(opts.num("min_iters"));
        PASTA_CHECK_MSG(setup_reps >= 1 && min_iters >= 1,
                        "setup_reps and min_iters must be at least 1");

        host.str("cpu", cpu_model())
            .num("nproc", std::thread::hardware_concurrency())
            .num("omp_threads", pasta::num_threads())
            .str("simd_isa",
                 pasta::simd::isa_name(pasta::simd::active_isa()))
            .str("compiler", PASTA_E2E_COMPILER)
            .str("build_type", PASTA_E2E_BUILD_TYPE)
            .str("scratch_fs", fs_type(opts.dir));

        // ---- setup; its repeats are spread over the run (below) so that
        // one slow spell of the host does not slow all of them ----
        const std::unique_ptr<Workload> wl = make_workload(opts);
        std::vector<double> setup_times;
        auto setup = [&] {
            const double t0 = now_s();
            wl->setup(rec);
            setup_times.push_back(now_s() - t0);
            return setup_times.back();
        };
        setup();

        // ---- measured iterations; the first also checks the outputs ----
        double deadline = now_s() + opts.seconds - wl->reserved_seconds();
        const double setup_every = opts.seconds / setup_reps;
        double next_setup = now_s() + setup_every;
        std::vector<double> walls, traced_walls;
        std::map<std::string, std::vector<double>> parts, traced_parts;
        std::map<std::string, double> self_sum;
        std::uint64_t dropped = 0;
        const std::string trace_path =
            opts.dir + "/" + opts.workload + ".trace.json";
        for (std::size_t k = 0;; ++k) {
            const bool traced = opts.trace && k % 2 == 1;
            if (traced) {
                pasta::obs::reset_spans();
                pasta::obs::set_mode(TraceMode::kFull);
            }
            const double t0 = now_s();
            wl->iterate(rec, k == 0);
            const double checks = rec.take_excluded();
            const double dt = now_s() - t0 - checks;
            detail["check_s"] += checks;
            pasta::obs::set_mode(TraceMode::kOff);
            std::map<std::string, double> iter_parts = rec.take_parts();
            if (iter_parts.empty())
                iter_parts["iteration"] = dt;
            for (const auto& [name, s] : iter_parts)
                (traced ? traced_parts : parts)[name].push_back(s);
            if (traced) {
                traced_walls.push_back(dt);
                dropped += pasta::obs::spans_dropped();
                for (const auto& [layer, s] :
                     fold_self_times(pasta::obs::collect_spans()))
                    self_sum[layer] += s;
                pasta::obs::write_chrome_trace(trace_path);
            } else {
                walls.push_back(dt);
            }
            // Setup time is not iteration time: it extends the deadline.
            for (; setup_times.size() < setup_reps && now_s() >= next_setup;
                 next_setup += setup_every)
                deadline += setup();
            const bool enough = walls.size() >= min_iters &&
                                (!opts.trace || traced_walls.size() >= 1);
            if (enough && now_s() >= deadline)
                break;
        }
        while (setup_times.size() < setup_reps)
            setup();
        wl->finish(rec);

        e2e_metrics["wall_s"] = sum_of_medians(parts);
        e2e_metrics["setup_s"] = median(setup_times);
        detail["iterations"] = static_cast<double>(walls.size());
        for (pasta::Kernel k : kKernels)
            layers["kernels.gflops." + lower(pasta::kernel_name(k))] =
                rec.cells.geomean_gflops(pasta::kernel_name(k));
        const double iters = static_cast<double>(walls.size() +
                                                 traced_walls.size());
        for (const auto& [layer, s] : rec.inclusive())
            detail["incl." + metric_name(layer, "_s")] = s / iters;

        if (opts.trace) {
            double traced_total = 0, covered = 0;
            for (double w : traced_walls)
                traced_total += w;
            for (const auto& [layer, s] : self_sum) {
                layers[metric_name(layer, "_s")] =
                    s / static_cast<double>(traced_walls.size());
                layers[metric_name(layer, "_pct")] = 100.0 * s / traced_total;
                covered += s;
            }
            layers["obs.span_coverage_pct"] = 100.0 * covered / traced_total;
            layers["obs.trace_overhead_pct"] =
                100.0 *
                (sum_of_medians(traced_parts) / sum_of_medians(parts) - 1.0);
            layers["obs.spans_dropped"] = static_cast<double>(dropped);
            for (const char* v : {"atomic", "privatized", "block-owner"})
                layers[std::string("kernels.mttkrp_variant_share.") + v] =
                    0;
            for (const auto& [v, share] : label_shares("mttkrp.variant"))
                layers["kernels.mttkrp_variant_share." + v] = share;

            // Roofline against the DRAM bandwidth measured here, with
            // arrays as large as the run's memory allows.
            pasta::ErtOptions ert_opts;
            ert_opts.min_bytes = ert_opts.max_bytes =
                static_cast<std::size_t>(opts.num("ert_array_mb")) << 20;
            ert_opts.llc_boundary_bytes = ert_opts.min_bytes / 2;
            const pasta::ErtResult ert = pasta::run_ert(ert_opts);
            detail["ert.dram_gbs"] = ert.dram_bw_gbs;
            detail["ert.peak_gflops"] = ert.peak_gflops;
            detail["ert.array_mb"] = opts.num("ert_array_mb");
            detail["ert.llc_mb"] =
                static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)) /
                1048576.0;
            for (pasta::Kernel k : kKernels)
                layers["kernels.roofline_pct." +
                       lower(pasta::kernel_name(k))] =
                    rec.cells.geomean_roofline_pct(pasta::kernel_name(k),
                                                   ert.dram_bw_gbs,
                                                   ert.peak_gflops);
        }
    } catch (const std::exception& e) {
        rec.outcome.check(false, std::string("run aborted: ") + e.what());
    }
    e2e_metrics["peak_rss_mb"] = peak_rss_mb();
    for (const auto& [k, v] : rec.metrics)
        layers[k] = v;
    for (const auto& [k, v] : rec.samples())
        layers[k] = median(v);

    std::string errors;
    for (const auto& e : rec.outcome.errors)
        errors += (errors.empty() ? "" : " | ") + e;
    const bool correct = rec.outcome.failed == 0;
    Json out;
    out.str("workload", opts.workload)
        .num("seed", static_cast<double>(opts.seed))
        .boolean("trace", opts.trace)
        .boolean("correct", correct)
        .num("attempted", static_cast<double>(rec.outcome.attempted))
        .num("failed", static_cast<double>(rec.outcome.failed))
        .str("errors", errors)
        .nums("e2e", e2e_metrics)
        .nums("layers", layers)
        .nums("detail", detail)
        .obj("host", host);
    std::printf("%s\n", out.dump().c_str());
    return correct ? 0 : 1;
}
