/// \file
/// Efficiency reporting: joins counter-registry telemetry with measured
/// runtimes and the Roofline machine model (paper §V-C).
///
/// The bench harness snapshots the registry around each trial; the deltas
/// give the trial's model-derived flops and bytes, whose ratio is the
/// counter-derived arithmetic intensity.  AI is a ratio, so it is
/// invariant to how many warmups/runs the trial performed — no
/// normalization by run counts is needed.  Combined with the measured
/// GFLOPS (from the Table I cost model and the timed seconds) it yields
/// the "% of roofline" column the suite CSVs carry.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "roofline/machine.hpp"

namespace pasta::obs {

/// Sum of (after - before) totals over every counter whose name ends in
/// `suffix` (".flops", ".bytes", ".atomics").  Counters absent from
/// `before` contribute their full `after` total.
double delta_suffix_sum(const MetricsSnapshot& before,
                        const MetricsSnapshot& after,
                        const std::string& suffix);

/// Load imbalance of one counter's per-worker totals: max/mean over the
/// slots that did any work (1.0 = perfectly balanced).  Returns 0 when
/// fewer than one worker recorded items.
double worker_imbalance(const CounterSample& sample);

/// Percent of the Roofline ceiling achieved: 100 x measured GFLOPS over
/// the platform's attainable performance at arithmetic intensity `ai`
/// (min of peak compute and ai x ERT-DRAM bandwidth).  Returns 0 when
/// any input is degenerate.
double roofline_pct(double measured_gflops, double ai,
                    const MachineSpec& spec);

/// Human-readable dump of a snapshot: counters with totals and
/// per-worker imbalance, gauges, then labels with occurrence counts.  The
/// machine-readable channels are the CSV/journal and the heartbeat.
std::string render_counter_report(const MetricsSnapshot& snap);

}  // namespace pasta::obs
