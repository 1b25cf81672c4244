#include "common/config.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <sstream>
#include <string_view>

#include "common/error.hpp"

namespace pasta::config {

namespace {

using K = Kind;

// Doc strings are the one-line meaning; README.md's table carries the
// same rows with the longer story linked from each section.
const Knob kKnobs[] = {
    // Suite protocol (bench/bench_common).
    {.name = "PASTA_SCALE", .kind = K::kReal, .fallback = "5e-4", .lo = 0,
     .hi = 1, .open_lo = true,
     .doc = "fraction of the paper's non-zeros to generate"},
    {.name = "PASTA_RUNS", .kind = K::kInt, .fallback = "3", .lo = 1,
     .hi = 1e6, .doc = "timed repetitions per kernel"},
    {.name = "PASTA_CACHE", .kind = K::kText, .fallback = ".pasta_cache",
     .doc = "dataset cache and run-journal directory"},
    {.name = "PASTA_CSV_DIR", .kind = K::kText, .fallback = "",
     .doc = "directory for <figure>.csv exports; unset = none"},
    {.name = "PASTA_JOURNAL", .kind = K::kFlag, .fallback = "1",
     .doc = "checkpoint/resume journaling"},
    {.name = "PASTA_FAULT", .kind = K::kText, .fallback = "",
     .doc = "fault rules point:action[:p][@N],...; unset = none"},
    {.name = "PASTA_FAULT_SEED", .kind = K::kInt, .fallback = "42",
     .lo = 0, .hi = 1e18,
     .doc = "seed of the fault probability stream"},
    {.name = "PASTA_LOG", .kind = K::kChoice, .fallback = "info",
     .words = "debug|info|warn|error", .doc = "log threshold"},
    {.name = "PASTA_VALIDATE", .kind = K::kChoice, .fallback = "off",
     .words = "off|convert|kernel|full",
     .doc = "structural and differential checking"},
    // Telemetry (src/obs).
    {.name = "PASTA_TRACE", .kind = K::kChoice, .fallback = "off",
     .words = "off|counters|spans|full",
     .doc = "model counters and span recording"},
    {.name = "PASTA_TRACE_DIR", .kind = K::kText, .fallback = "",
     .doc = "trace export directory; unset = PASTA_CSV_DIR, else ."},
    {.name = "PASTA_METRICS", .kind = K::kText, .fallback = "",
     .doc = "heartbeat file <path>[,interval_ms]; unset = off"},
    // Memory and dispatch.
    {.name = "PASTA_MEM_BYTES", .kind = K::kBytes, .fallback = "0",
     .doc = "host memory budget; 0 = unlimited"},
    {.name = "PASTA_GPUSIM_MEM_BYTES", .kind = K::kBytes,
     .fallback = "16G",
     .doc = "simulated GPU memory (P100/V100 HBM2); 0 = unlimited"},
    {.name = "PASTA_SIMD", .kind = K::kChoice, .fallback = "auto",
     .words = "auto|avx512|avx2|scalar",
     .doc = "rank-loop micro-kernel ISA; auto = widest supported"},
};

/// The text to parse: the environment's value, else the default.
const char*
raw(const Knob& k)
{
    const char* s = std::getenv(k.name);
    return s ? s : k.fallback;
}

[[noreturn]] void
reject(const Knob& k, const char* value, const std::string& what)
{
    throw PastaError(std::string(k.name) + "='" + value + "' must be " +
                     what);
}

std::string
range_text(const Knob& k)
{
    std::ostringstream oss;
    oss << (k.open_lo ? "(" : "[");
    if (k.kind == K::kInt)
        oss << static_cast<long long>(k.lo) << ", "
            << static_cast<long long>(k.hi);
    else
        oss << k.lo << ", " << k.hi;
    oss << "]";
    return oss.str();
}

/// The row for `name`, which must be read as `kind` (text reads any).
const Knob&
knob(std::string_view name, Kind kind)
{
    for (const Knob& k : kKnobs) {
        if (name == k.name) {
            PASTA_CHECK_MSG(k.kind == kind || kind == K::kText,
                            name << " is not a knob of this kind");
            return k;
        }
    }
    throw PastaError("no knob named " + std::string(name));
}

/// Runs the knob's own reader so a malformed value throws.
void
read_as_declared(const Knob& k)
{
    switch (k.kind) {
      case K::kInt: (void)integer(k.name); break;
      case K::kReal: (void)real(k.name); break;
      case K::kBytes: (void)bytes(k.name); break;
      case K::kChoice: (void)choice(k.name); break;
      case K::kFlag: (void)flag(k.name); break;
      case K::kText: (void)text(k.name); break;
    }
}

}  // namespace

std::span<const Knob>
knobs()
{
    return kKnobs;
}

bool
is_set(const char* name)
{
    return std::getenv(knob(name, K::kText).name) != nullptr;
}

std::int64_t
integer(const char* name)
{
    const Knob& k = knob(name, K::kInt);
    const char* s = raw(k);
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(s, &end, 10);
    if (!(std::isdigit(static_cast<unsigned char>(*s)) || *s == '-') ||
        *end != '\0' || errno == ERANGE || v < k.lo || v > k.hi)
        reject(k, s, "an integer in " + range_text(k));
    return v;
}

double
real(const char* name)
{
    const Knob& k = knob(name, K::kReal);
    const char* s = raw(k);
    char* end = nullptr;
    const double v = std::strtod(s, &end);
    const bool above_lo = k.open_lo ? v > k.lo : v >= k.lo;
    if (*s == '\0' || std::isspace(static_cast<unsigned char>(*s)) ||
        *end != '\0' || !std::isfinite(v) || !above_lo || v > k.hi)
        reject(k, s, "a number in " + range_text(k));
    return v;
}

std::uint64_t
bytes(const char* name)
{
    const Knob& k = knob(name, K::kBytes);
    const char* s = raw(k);
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    std::uint64_t scale = 1;
    switch (*end) {
      case 'k': case 'K': scale = 1ULL << 10, ++end; break;
      case 'm': case 'M': scale = 1ULL << 20, ++end; break;
      case 'g': case 'G': scale = 1ULL << 30, ++end; break;
      default: break;
    }
    if (!std::isdigit(static_cast<unsigned char>(*s)) || *end != '\0' ||
        errno == ERANGE || v > ~0ULL / scale)
        reject(k, s, "a byte count with an optional K/M/G suffix");
    return v * scale;
}

std::size_t
choice(const char* name)
{
    const Knob& k = knob(name, K::kChoice);
    const char* s = raw(k);
    std::string_view words(k.words);
    for (std::size_t i = 0;; ++i) {
        const std::size_t bar = words.find('|');
        if (words.substr(0, bar) == s)
            return i;
        if (bar == std::string_view::npos)
            reject(k, s, std::string("one of ") + k.words);
        words.remove_prefix(bar + 1);
    }
}

bool
flag(const char* name)
{
    const Knob& k = knob(name, K::kFlag);
    const char* s = raw(k);
    if (std::strcmp(s, "0") != 0 && std::strcmp(s, "1") != 0)
        reject(k, s, "0 or 1");
    return *s == '1';
}

std::string
text(const char* name)
{
    const Knob& k = knob(name, K::kText);
    const char* s = std::getenv(k.name);
    if (s && *s == '\0')
        reject(k, s, "non-empty");
    return s ? s : k.fallback;
}

void
check_environment()
{
    std::string unknown;
    for (char** env = ::environ; *env; ++env) {
        const std::string_view entry(*env);
        const std::string_view name = entry.substr(0, entry.find('='));
        const auto known = [&](const Knob& k) { return name == k.name; };
        if (name.starts_with("PASTA_") &&
            std::none_of(std::begin(kKnobs), std::end(kKnobs), known))
            unknown += (unknown.empty() ? "" : ", ") + std::string(name);
    }
    if (!unknown.empty())
        throw PastaError("unknown PASTA_* variable(s) " + unknown +
                         ": not in the knob table (README.md, "
                         "\"Environment knobs\")");
    for (const Knob& k : kKnobs)
        if (std::getenv(k.name))
            read_as_declared(k);
}

}  // namespace pasta::config
