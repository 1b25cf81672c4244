/// \file
/// Deterministic fault injection for the benchmark harness.
///
/// Long suite campaigns fail partially, not atomically: a corrupt cache
/// entry, an OOM during factor allocation, or one hung kernel must not
/// discard hundreds of completed measurements.  Every guard the harness
/// grows (retry, watchdog, cache regeneration) is only trustworthy if it
/// can be exercised, so production code is instrumented with *named
/// injection points* that are zero-cost no-ops unless a fault spec is
/// active:
///
///   io.read     entering a tensor file read (.tns / .pstb)
///   cache.load  entering a .pasta_cache lookup in TensorRegistry
///   alloc       entering large per-tensor allocations (trial context)
///   kernel.run  entering one guarded (tensor, kernel, format) trial
///   mem.reserve entering a memory-governor reservation (membudget)
///   io.mmap     entering a MappedCooTensor mmap open (binary_io)
///
/// A spec is a comma-separated rule list, configured via $PASTA_FAULT:
///
///   PASTA_FAULT=io.read:throw:0.1,kernel.run:hang@3
///
/// Each rule is `point:action[:probability][@N]`.  Actions: `throw`
/// (PastaError), `oom` (std::bad_alloc), `hang` (sleep past any sane
/// watchdog; FaultRule::hang_seconds, 30 s by default).  A
/// `:p` suffix fires with probability p from a SplitMix64 stream seeded
/// by $PASTA_FAULT_SEED (default 42) — deterministic across reruns —
/// while `@N` fires on exactly the Nth hit of that point.  With neither,
/// the rule always fires.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pasta::harness {

/// What an armed rule does when it fires.
enum class FaultAction { kThrow, kOom, kHang };

/// One parsed injection rule.
struct FaultRule {
    std::string point;
    FaultAction action = FaultAction::kThrow;
    double probability = 1.0;     ///< fire chance per hit (when `at` == 0)
    std::uint64_t at = 0;         ///< 1-based hit index to fire on; 0 = off
    double hang_seconds = 30.0;   ///< sleep length for kHang
};

/// A full spec: zero or more rules over the known injection points.
struct FaultSpec {
    std::vector<FaultRule> rules;
};

/// Parses a `point:action[:p][@N]` rule list.  Throws PastaError on
/// unknown points/actions, malformed probabilities, or empty rules.
FaultSpec parse_fault_spec(const std::string& spec);

/// The names this build instruments; parse_fault_spec rejects others.
const std::vector<std::string>& known_fault_points();

/// Process-wide injector.  Disabled (all points free) until configured.
class FaultInjector {
  public:
    static FaultInjector& instance();

    /// Arms `spec`; the probability stream restarts from `seed`.
    void configure(const FaultSpec& spec, std::uint64_t seed = 42);

    /// Arms from $PASTA_FAULT / $PASTA_FAULT_SEED; no-op when
    /// $PASTA_FAULT is unset.
    void configure_from_env();

    /// Disarms everything and zeroes hit counters.
    void clear();

    /// True when at least one rule is armed.
    bool enabled() const;

    /// Registers one arrival at `point`; may throw PastaError or
    /// std::bad_alloc, or sleep (hang), per the armed rules.
    void hit(const char* point);

    /// Arrivals seen at `point` since the last configure/clear.
    std::uint64_t hits(const std::string& point) const;

  private:
    FaultInjector() = default;
    struct Impl;
    Impl& impl() const;
};

/// The instrumentation call production code places at each named point.
/// Zero branch-plus-load cost when no spec is armed.
inline void
fault_point(const char* point)
{
    FaultInjector& injector = FaultInjector::instance();
    if (injector.enabled())
        injector.hit(point);
}

}  // namespace pasta::harness
