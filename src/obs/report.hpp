/// \file
/// Per-trial counter deltas (paper §V-C).
///
/// The bench harness snapshots the registry around each trial; the deltas
/// give the trial's model-derived flops and bytes, whose ratio is the
/// counter-derived arithmetic intensity.  AI is a ratio, so it is
/// invariant to how many warmups/runs the trial performed — no
/// normalization by run counts is needed.  analysis/efficiency turns it
/// into the "% of roofline" column the suite CSVs carry.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace pasta::obs {

/// Sum of (after - before) totals over every counter whose name ends in
/// `suffix` (".flops", ".bytes", ".atomics").  Counters absent from
/// `before` contribute their full `after` total.
double delta_suffix_sum(const MetricsSnapshot& before,
                        const MetricsSnapshot& after,
                        const std::string& suffix);

}  // namespace pasta::obs
