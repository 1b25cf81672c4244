#include "harness/fault.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>
#include <thread>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace pasta::harness {

namespace {

/// SplitMix64 (common/rng.hpp): tiny, seedable, and good enough for
/// fire/no-fire draws.
double
uniform01(std::uint64_t& state)
{
    return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

FaultAction
parse_action(const std::string& name, const std::string& rule)
{
    if (name == "throw")
        return FaultAction::kThrow;
    if (name == "oom")
        return FaultAction::kOom;
    if (name == "hang")
        return FaultAction::kHang;
    throw PastaError("fault spec: unknown action '" + name + "' in rule '" +
                     rule + "' (expected throw|oom|hang)");
}

}  // namespace

const std::vector<std::string>&
known_fault_points()
{
    static const std::vector<std::string> points = {
        "io.read", "cache.load", "alloc", "kernel.run",
        "mem.reserve", "io.mmap"};
    return points;
}

FaultSpec
parse_fault_spec(const std::string& spec)
{
    FaultSpec parsed;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string rule = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (rule.empty()) {
            if (spec.empty())
                break;
            throw PastaError("fault spec: empty rule in '" + spec + "'");
        }

        FaultRule r;
        // Optional trailing @N hit trigger.
        const std::size_t atp = rule.find('@');
        if (atp != std::string::npos) {
            const std::string n = rule.substr(atp + 1);
            char* end = nullptr;
            r.at = std::strtoull(n.c_str(), &end, 10);
            if (n.empty() || *end != '\0' || r.at == 0)
                throw PastaError("fault spec: bad hit index '@" + n +
                                 "' in rule '" + rule + "'");
            rule.erase(atp);
        }

        const std::size_t c1 = rule.find(':');
        if (c1 == std::string::npos)
            throw PastaError("fault spec: rule '" + rule +
                             "' lacks an action (point:action[:p][@N])");
        r.point = rule.substr(0, c1);
        bool known = false;
        for (const auto& p : known_fault_points())
            known = known || p == r.point;
        if (!known)
            throw PastaError("fault spec: unknown injection point '" +
                             r.point + "' in rule '" + rule + "'");

        const std::size_t c2 = rule.find(':', c1 + 1);
        r.action = parse_action(
            rule.substr(c1 + 1, c2 == std::string::npos ? std::string::npos
                                                        : c2 - c1 - 1),
            rule);
        if (c2 != std::string::npos) {
            const std::string p = rule.substr(c2 + 1);
            char* end = nullptr;
            r.probability = std::strtod(p.c_str(), &end);
            if (p.empty() || *end != '\0' || !(r.probability >= 0.0) ||
                r.probability > 1.0)
                throw PastaError("fault spec: probability '" + p +
                                 "' in rule '" + rule +
                                 "' must be in [0, 1]");
        }
        parsed.rules.push_back(std::move(r));
    }
    return parsed;
}

struct FaultInjector::Impl {
    mutable std::mutex mutex;
    std::atomic<bool> enabled{false};
    std::map<std::string, std::vector<FaultRule>> rules;
    std::map<std::string, std::uint64_t> counters;
    std::uint64_t rng_state = 42;
};

FaultInjector::Impl&
FaultInjector::impl() const
{
    static Impl impl;
    return impl;
}

FaultInjector&
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::configure(const FaultSpec& spec, std::uint64_t seed)
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    im.rules.clear();
    im.counters.clear();
    im.rng_state = seed;
    for (const auto& rule : spec.rules)
        im.rules[rule.point].push_back(rule);
    im.enabled.store(!im.rules.empty(), std::memory_order_release);
}

void
FaultInjector::configure_from_env()
{
    const std::string spec = config::text("PASTA_FAULT");
    if (spec.empty())
        return;
    const auto seed =
        static_cast<std::uint64_t>(config::integer("PASTA_FAULT_SEED"));
    configure(parse_fault_spec(spec), seed);
    PASTA_LOG_WARN << "fault injection armed: PASTA_FAULT=" << spec
                   << " (seed " << seed << ")";
}

void
FaultInjector::clear()
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    im.rules.clear();
    im.counters.clear();
    im.enabled.store(false, std::memory_order_release);
}

bool
FaultInjector::enabled() const
{
    return impl().enabled.load(std::memory_order_acquire);
}

void
FaultInjector::hit(const char* point)
{
    Impl& im = impl();
    FaultAction action{};
    double hang_seconds = 0;
    bool fire = false;
    {
        std::lock_guard<std::mutex> lock(im.mutex);
        const std::uint64_t count = ++im.counters[point];
        auto it = im.rules.find(point);
        if (it == im.rules.end())
            return;
        for (const auto& rule : it->second) {
            if (rule.at != 0 ? count == rule.at
                             : uniform01(im.rng_state) < rule.probability) {
                fire = true;
                action = rule.action;
                hang_seconds = rule.hang_seconds;
                break;
            }
        }
    }
    if (!fire)
        return;
    switch (action) {
      case FaultAction::kThrow:
        PASTA_LOG_WARN << "fault injection: throwing at " << point;
        throw PastaError(std::string("injected fault at ") + point);
      case FaultAction::kOom:
        PASTA_LOG_WARN << "fault injection: OOM at " << point;
        throw std::bad_alloc();
      case FaultAction::kHang: {
        PASTA_LOG_WARN << "fault injection: hanging " << hang_seconds
                       << " s at " << point;
        // Sleep in short slices against a monotonic deadline so a huge
        // hang cannot oversleep from wall-clock adjustments.
        Deadline deadline(hang_seconds);
        while (!deadline.expired())
            std::this_thread::sleep_for(std::chrono::milliseconds(
                static_cast<long>(
                    std::min(0.05, deadline.remaining_seconds()) * 1000) +
                1));
        break;
      }
    }
}

std::uint64_t
FaultInjector::hits(const std::string& point) const
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    auto it = im.counters.find(point);
    return it == im.counters.end() ? 0 : it->second;
}

}  // namespace pasta::harness
