#include "obs/report.hpp"

namespace pasta::obs {

double
delta_suffix_sum(const MetricsSnapshot& before,
                 const MetricsSnapshot& after, const std::string& suffix)
{
    double sum = 0;
    for (const auto& [name, c] : after.counters) {
        if (!name.ends_with(suffix))
            continue;
        const CounterSample* prev = before.find(name);
        const std::uint64_t base = prev ? prev->total : 0;
        if (c.total > base)
            sum += static_cast<double>(c.total - base);
    }
    return sum;
}

}  // namespace pasta::obs
