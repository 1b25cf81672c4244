/// \file
/// Model counters: the PASTA_TRACE-gated front end of the metrics
/// registry (obs/metrics.hpp), fed by the kernels, the merge/sort
/// engines, the conversions, the memory governor and the simulated GPU.
///
/// The paper explains performance through machine balance and arithmetic
/// intensity (§V); these calls deposit the model-derived quantities that
/// analysis needs — flops, bytes moved, atomics issued, radix passes,
/// per-worker work items — and the decisions taken (MTTKRP variant, merge
/// path, sort fallback) as labels.  Names are dotted ("mttkrp.flops");
/// the ".flops"/".bytes" suffixes are what the bench harness sums per
/// trial to derive arithmetic intensity.
///
/// Every call records only while counters are armed (PASTA_TRACE=counters
/// or full) and is one relaxed load otherwise.  When armed it looks the
/// instrument up in the registry, so it is meant for sites that record
/// once or a few times per kernel invocation; a hotter site caches a
/// handle from obs::counter() behind its own counters_enabled() check.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pasta::obs {

/// counter(name) += v.
void add(const char* name, std::uint64_t v);

/// counter(name) += v, attributed to `worker` (see Counter::add_worker).
void add_worker(const char* name, int worker, std::uint64_t v);

/// gauge(name) = max(gauge(name), v): a high-water mark (memory peaks,
/// occupancy, SIMD width) kept apart from the counters' suffix sums.
void record_max(const char* name, std::uint64_t v);

/// Records the decision label `value` under `key`: remembers the last
/// value and counts how many times each distinct value was set.
void set_label(const std::string& key, const std::string& value);

/// Last value set under `key`; "" when never set.
std::string last_label(const std::string& key);

/// The registry snapshot, under the name the model-counter consumers
/// (bench/e2e among them) use.  Identical to snapshot_metrics().
MetricsSnapshot snapshot_counters();

}  // namespace pasta::obs
