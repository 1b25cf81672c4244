/// \file
/// Empirical Roofline Tool (ERT)-style micro-kernels (paper §V-B).
///
/// Characterizes the machine the suite runs on the way the paper's ERT
/// does: STREAM-like vector micro-kernels (copy, scale, add, triad) are
/// swept over working-set sizes; bandwidth at cache-resident sizes gives
/// the LLC roof, bandwidth at DRAM-resident sizes gives the DRAM roof,
/// and independent multiply-add chains on every thread, at the active
/// SIMD width, estimate attainable peak FLOPS.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "roofline/machine.hpp"
#include "simd/simd.hpp"

namespace pasta {

/// One micro-kernel measurement at one working-set size.
struct ErtSample {
    std::string kernel;        ///< "copy", "scale", "add", "triad"
    std::size_t bytes = 0;     ///< working-set size
    double bandwidth_gbs = 0;  ///< achieved bandwidth
};

/// Full ERT characterization of the host.
struct ErtResult {
    std::vector<ErtSample> samples;
    double dram_bw_gbs = 0;   ///< best bandwidth at DRAM-resident sizes
    double llc_bw_gbs = 0;    ///< best bandwidth at cache-resident sizes
    double peak_gflops = 0;   ///< attainable FLOPS, all threads
    simd::Isa isa = simd::Isa::kScalar;  ///< ISA peak_gflops ran at
};

/// Options bounding the sweep (defaults keep the run under ~10 s).
struct ErtOptions {
    std::size_t min_bytes = 64 * 1024;
    std::size_t max_bytes = 256 * 1024 * 1024;
    std::size_t llc_boundary_bytes = 8 * 1024 * 1024;  ///< cache/DRAM split
    double seconds_per_point = 0.05;
};

/// Runs the ERT sweep on the current host.
ErtResult run_ert(const ErtOptions& options = {});

/// Wraps an ERT result as a MachineSpec for the measured host.
MachineSpec host_machine_spec(const ErtResult& ert);

}  // namespace pasta
