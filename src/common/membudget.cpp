#include "common/membudget.hpp"

#include <sstream>

#include "common/config.hpp"
#include "common/log.hpp"
#include "harness/fault.hpp"
#include "obs/counters.hpp"

namespace pasta::membudget {

MemGovernor&
MemGovernor::instance()
{
    static MemGovernor governor;
    return governor;
}

void
MemGovernor::configure(std::uint64_t budget_bytes)
{
    budget_.store(budget_bytes, std::memory_order_relaxed);
    degraded_.store(false, std::memory_order_relaxed);
    if (budget_bytes != 0)
        PASTA_LOG_INFO << "memory governor armed: budget " << budget_bytes
                       << " bytes";
}

void
MemGovernor::configure_from_env()
{
    if (config::is_set("PASTA_MEM_BYTES"))
        configure(config::bytes("PASTA_MEM_BYTES"));
}

void
MemGovernor::note_peak(std::uint64_t level) const
{
    std::uint64_t seen = peak_.load(std::memory_order_relaxed);
    while (level > seen &&
           !peak_.compare_exchange_weak(seen, level,
                                        std::memory_order_relaxed))
        ;
}

void
MemGovernor::reserve(std::uint64_t bytes, const char* what)
{
    harness::fault_point("mem.reserve");
    const std::uint64_t limit = budget();
    std::uint64_t current = reserved_.load(std::memory_order_relaxed);
    for (;;) {
        const std::uint64_t next = current + bytes;
        if (limit != 0 && (next > limit || next < current)) {
            std::ostringstream oss;
            oss << "memory budget exceeded reserving " << bytes
                << " bytes for " << what << ": " << current << " of "
                << limit << " bytes already reserved (PASTA_MEM_BYTES)";
            throw HostOomError(oss.str());
        }
        if (reserved_.compare_exchange_weak(current, next,
                                            std::memory_order_relaxed))
            break;
    }
    note_peak(current + bytes);
    obs::add("mem.granted", bytes);
}

bool
MemGovernor::try_reserve(std::uint64_t bytes, const char* what)
{
    const std::uint64_t limit = budget();
    std::uint64_t current = reserved_.load(std::memory_order_relaxed);
    for (;;) {
        const std::uint64_t next = current + bytes;
        if (limit != 0 && (next > limit || next < current)) {
            PASTA_LOG_DEBUG << "memory governor: " << what << " needs "
                            << bytes << " bytes, " << (limit - current)
                            << " available; declining";
            return false;
        }
        if (reserved_.compare_exchange_weak(current, next,
                                            std::memory_order_relaxed))
            break;
    }
    note_peak(current + bytes);
    obs::add("mem.granted", bytes);
    return true;
}

void
MemGovernor::release(std::uint64_t bytes)
{
    std::uint64_t current = reserved_.load(std::memory_order_relaxed);
    for (;;) {
        const std::uint64_t next = current >= bytes ? current - bytes : 0;
        if (reserved_.compare_exchange_weak(current, next,
                                            std::memory_order_relaxed))
            break;
    }
}

bool
MemGovernor::would_fit(std::uint64_t bytes) const
{
    const std::uint64_t limit = budget();
    if (limit == 0)
        return true;
    const std::uint64_t current = reserved_.load(std::memory_order_relaxed);
    return current + bytes >= current && current + bytes <= limit;
}

void
MemGovernor::check(std::uint64_t bytes, const char* what) const
{
    const std::uint64_t current = reserved_.load(std::memory_order_relaxed);
    const std::uint64_t limit = budget();
    if (limit != 0 && (current + bytes < current || current + bytes > limit)) {
        std::ostringstream oss;
        oss << "memory budget exceeded: " << what << " needs " << bytes
            << " bytes with " << current << " of " << limit
            << " already reserved (PASTA_MEM_BYTES)";
        throw HostOomError(oss.str());
    }
    // Only a granted probe is a prospective peak; a rejected working set
    // never materializes, so recording it would break peak <= budget.
    note_peak(current + bytes);
}

void
MemGovernor::reset_peak()
{
    peak_.store(reserved_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
}

}  // namespace pasta::membudget
