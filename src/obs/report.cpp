#include "obs/report.hpp"

#include <algorithm>
#include <sstream>

#include "roofline/roofline.hpp"

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

double
worker_imbalance(const CounterSample& sample)
{
    std::uint64_t max_items = 0;
    std::uint64_t total = 0;
    int active = 0;
    for (std::uint64_t w : sample.worker) {
        if (w == 0)
            continue;
        max_items = std::max(max_items, w);
        total += w;
        ++active;
    }
    if (active == 0 || total == 0)
        return 0.0;
    const double mean =
        static_cast<double>(total) / static_cast<double>(active);
    return static_cast<double>(max_items) / mean;
}

double
roofline_pct(double measured_gflops, double ai, const MachineSpec& spec)
{
    if (measured_gflops <= 0 || ai <= 0)
        return 0.0;
    const double roof = roofline_performance_gflops(spec, ai);
    return roof > 0 ? 100.0 * measured_gflops / roof : 0.0;
}

std::string
render_counter_report(const MetricsSnapshot& snap)
{
    std::ostringstream out;
    out << "counters:\n";
    for (const auto& [name, c] : snap.counters) {
        out << "  " << name << "  total=" << c.total;
        if (!c.worker.empty()) {
            const double imb = worker_imbalance(c);
            out << "  workers=" << c.worker.size();
            if (imb > 0) {
                out.precision(3);
                out << "  imbalance=" << imb;
            }
        }
        if (c.overflow > 0)
            out << "  overflow=" << c.overflow;
        out << "\n";
    }
    out << "gauges:\n";
    out.precision(15);
    for (const auto& [name, v] : snap.gauges)
        out << "  " << name << "  value=" << v << "\n";
    out << "labels:\n";
    for (const auto& l : snap.labels) {
        out << "  " << l.key << " = " << l.last << "  (";
        bool first = true;
        for (const auto& [value, n] : l.counts) {
            if (!first)
                out << ", ";
            first = false;
            out << value << " x" << n;
        }
        out << ")\n";
    }
    return out.str();
}

}  // namespace pasta::obs
