/// \file
/// Format-invariant validation layer (one checker per sparse format).
///
/// Every format the suite implements carries structural invariants —
/// sorted order, index bounds, block-pointer monotonicity and coverage,
/// dense-stripe volumes, no duplicate coordinates, finite values — that
/// the format-abstraction literature argues must be checked exactly at
/// conversion and deserialization boundaries.  The checkers here verify
/// those invariants and return a ValidationReport listing the first K
/// offending entries with their positions, not just a boolean, so a
/// corrupt tensor is diagnosable from the failure record alone.
///
/// The layer is armed through the PASTA_VALIDATE environment variable:
///   off      no checks (default; the timing path is untouched)
///   convert  validate every format after construction / conversion /
///            deserialization
///   kernel   differentially check each benchmark trial's output against
///            a serial COO oracle (see diff.hpp)
///   full     both, plus bounds-checked simulated GPU memory accesses
/// Validation failures throw ValidationError, which the PR-1 trial guard
/// records as a distinct "validation" failure class in the run journal
/// and failure CSVs instead of aborting the campaign.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace pasta {
class CooTensor;
class ScooTensor;
class HiCooTensor;
class GHiCooTensor;
class SHiCooTensor;
class CsfTensor;
struct CsfLevel;
}  // namespace pasta

namespace pasta::validate {

/// Runtime validation mode (PASTA_VALIDATE).
enum class Mode { kOff, kConvert, kKernel, kFull };

/// Reads PASTA_VALIDATE, whose words name the enumerators in order
/// (unset means kOff); anything else throws PastaError.
Mode mode_from_env();

/// The cached process-wide mode (reads the environment on first call).
Mode current_mode();

/// Overrides the cached mode (tests and drivers).
void set_mode(Mode mode);

/// Human-readable mode name.
const char* mode_name(Mode mode);

/// True when structural checks run after conversions/deserialization.
bool convert_checks_enabled();

/// True when kernel outputs are diff-checked against oracles.
bool kernel_checks_enabled();

/// True only under PASTA_VALIDATE=full (arms GPU-sim bounds checking).
bool full_checks_enabled();

/// Thrown when a structural invariant or differential check fails.
/// Derives from PastaError so existing guards catch it, but the trial
/// harness classifies it separately: validation failures are
/// deterministic and therefore terminal (never retried).
class ValidationError : public PastaError {
  public:
    explicit ValidationError(const std::string& what) : PastaError(what) {}
};

/// One offending entry: which invariant, where, and what was seen.
struct Issue {
    std::string code;    ///< invariant id, e.g. "bptr.monotone"
    Size position = 0;   ///< entry/block/level position of the violation
    std::string detail;  ///< human-readable specifics (indices, values)
};

/// Outcome of one structural validation pass.
struct ValidationReport {
    /// Reports keep the first kMaxIssues offending entries; further
    /// violations are only counted.
    static constexpr Size kMaxIssues = 8;

    std::string format;          ///< checked format, e.g. "HiCOO"
    Size checked = 0;            ///< entries examined
    Size violations = 0;         ///< total violations found
    std::vector<Issue> issues;   ///< first kMaxIssues violations

    bool ok() const { return violations == 0; }

    /// Records a violation (keeps the first kMaxIssues).
    void add(std::string code, Size position, std::string detail);

    /// One-line result, listing the retained issues when failing.
    std::string summary() const;

    /// Throws ValidationError carrying summary() when !ok().
    void require() const;
};

/// Structural invariant checkers, one per format.
ValidationReport validate(const CooTensor& x);
ValidationReport validate(const ScooTensor& x);
ValidationReport validate(const HiCooTensor& x);
ValidationReport validate(const GHiCooTensor& x);
ValidationReport validate(const SHiCooTensor& x);
ValidationReport validate(const CsfTensor& x);

/// Raw-array HiCOO checker: the same invariants as validate(HiCooTensor)
/// over caller-held arrays.  Lets adversarial tests corrupt `bptr` and
/// friends directly, which the member API (correctly) cannot produce.
ValidationReport validate_hicoo_arrays(
    const std::vector<Index>& dims, unsigned block_bits,
    const std::vector<std::vector<BIndex>>& binds,
    const std::vector<Size>& bptr,
    const std::vector<std::vector<EIndex>>& einds,
    const std::vector<Value>& values);

/// Raw-array CSF checker (levels are caller-constructed).
ValidationReport validate_csf_arrays(const std::vector<Index>& dims,
                                     const std::vector<Size>& mode_order,
                                     const std::vector<CsfLevel>& levels,
                                     const std::vector<Value>& values);

}  // namespace pasta::validate
