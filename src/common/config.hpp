/// \file
/// The one table of PASTA_* environment knobs and their strict readers.
///
/// Every run setting the suite takes from the environment is one row of
/// knobs(): name, kind, default, bounds or allowed words, and a one-line
/// doc.  Each kind has exactly one reader.  An unset variable reads as
/// its default; a set value that does not parse as its kind, or lies
/// outside its bounds, throws PastaError("NAME='v' must be ...").  An
/// empty value is malformed, not unset.  README.md's "Environment knobs"
/// table lists the same names (test_common checks both directions).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace pasta::config {

enum class Kind {
    kInt,     ///< decimal integer in [lo, hi]
    kReal,    ///< finite decimal number in [lo, hi], or (lo, hi]
    kBytes,   ///< byte count with an optional K/M/G binary suffix
    kChoice,  ///< one of the '|'-separated `words`
    kFlag,    ///< 0 or 1
    kText,    ///< any non-empty string
};

struct Knob {
    const char* name;
    Kind kind;
    const char* fallback;    ///< default, spelled as a set value would be
    double lo = 0;           ///< kInt/kReal bounds, inclusive ...
    double hi = 0;
    bool open_lo = false;    ///< ... except lo when set
    const char* words = "";  ///< kChoice: "off|convert|kernel|full"
    const char* doc = "";
};

/// Every knob, in README order.
std::span<const Knob> knobs();

/// True when `name` is present in the environment, even if empty.
bool is_set(const char* name);

/// The readers: a knob's value, or its default when unset.  Each throws
/// PastaError for a malformed value, a name not in the table, or a knob
/// of another kind.
std::int64_t integer(const char* name);
double real(const char* name);
std::uint64_t bytes(const char* name);
/// Index of the value in the knob's word list.
std::size_t choice(const char* name);
bool flag(const char* name);
/// The value of any knob as written (or its default), non-empty when set.
std::string text(const char* name);

/// Throws PastaError naming every set PASTA_* variable that is not in
/// the table, else the first set knob whose value is malformed.
void check_environment();

}  // namespace pasta::config
