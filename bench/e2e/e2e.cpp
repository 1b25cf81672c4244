#include "e2e.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"
#include "gen/kronecker.hpp"
#include "gen/powerlaw.hpp"

namespace e2e {

double
Options::num(const std::string& key) const
{
    const std::string s = text(key);
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    PASTA_CHECK_MSG(!s.empty() && *end == '\0' && std::isfinite(v),
                    "parameter " << key << "='" << s
                                 << "' is not a number");
    return v;
}

std::string
Options::text(const std::string& key) const
{
    const auto it = params.find(key);
    PASTA_CHECK_MSG(it != params.end(), "workload " << workload
                                                    << " needs parameter "
                                                    << key);
    return it->second;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    if (v[hi] == v[lo])  // also keeps +inf samples from turning into NaN
        return v[lo];
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace

void
Cells::add(const std::string& cell, const std::string& kernel, Size mode,
           const pasta::KernelCost& cost, double seconds)
{
    Cell& c = cells_[cell];
    c.kernel = kernel;
    ModeSamples& s = c.modes[mode];
    s.cost = cost;
    s.seconds.push_back(seconds);
}

std::map<std::string, Cells::Rate>
Cells::rates() const
{
    std::map<std::string, Rate> out;
    for (const auto& [name, cell] : cells_) {
        double flops = 0, bytes = 0, seconds = 0;
        for (const auto& [mode, s] : cell.modes) {
            flops += s.cost.flops;
            bytes += s.cost.bytes;
            seconds += median(s.seconds);
        }
        Rate r;
        r.kernel = cell.kernel;
        r.gflops = pasta::gflops(flops, seconds);
        r.oi = bytes > 0 ? flops / bytes : 0;
        out[name] = r;
    }
    return out;
}

double
Cells::geomean_gflops(const std::string& kernel) const
{
    std::vector<double> v;
    for (const auto& [name, r] : rates())
        if (r.kernel == kernel && r.gflops > 0)
            v.push_back(r.gflops);
    return geomean(v);
}

double
Cells::geomean_roofline_pct(const std::string& kernel, double dram_gbs,
                            double peak_gflops) const
{
    std::vector<double> v;
    for (const auto& [name, r] : rates()) {
        if (r.kernel != kernel || r.gflops <= 0)
            continue;
        const double roof = std::min(peak_gflops, r.oi * dram_gbs);
        if (roof > 0)
            v.push_back(100.0 * r.gflops / roof);
    }
    return geomean(v);
}

void
Outcome::check(bool ok, const std::string& what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (errors.size() < 8)
        errors.push_back(what);
}

void
Outcome::check(const pasta::validate::DiffReport& report,
               const std::string& where)
{
    check(report.ok(), where + ": " + report.summary());
}

pasta::CooTensor
synthesize(const pasta::DatasetSpec& spec, double scale, std::uint64_t seed)
{
    const pasta::ScaledShape shape = pasta::scaled_shape(spec, scale);
    std::uint64_t mixed = 0xCBF29CE484222325ULL;
    for (char c : spec.id)
        mixed = (mixed ^ static_cast<std::uint64_t>(c)) * 0x100000001B3ULL;
    mixed ^= seed * 0x9E3779B97F4A7C15ULL;
    if (spec.gen == pasta::GenKind::kKronecker) {
        pasta::KroneckerConfig config;
        config.dims = shape.dims;
        config.nnz = shape.nnz;
        config.seed = mixed;
        return pasta::generate_kronecker(config);
    }
    pasta::PowerLawConfig config;
    config.dims = shape.dims;
    config.nnz = shape.nnz;
    config.uniform_mode = spec.uniform_mode;
    config.seed = mixed;
    return pasta::generate_powerlaw(config);
}

pasta::KernelCost
model_cost(pasta::Kernel kernel, pasta::Format format,
           const pasta::CooTensor& x, Size num_fibers, Size num_blocks,
           Size rank)
{
    pasta::TensorStats stats;
    stats.order = x.order();
    stats.nnz = x.nnz();
    stats.num_fibers = num_fibers;
    stats.num_blocks = num_blocks;
    return pasta::kernel_cost(kernel, format, stats, rank);
}

pasta::validate::DiffReport
diff_mttkrp_touched(const pasta::CooTensor& x,
                    const std::vector<const pasta::DenseMatrix*>& factors,
                    Size mode, const pasta::DenseMatrix& out)
{
    using pasta::Index;
    // Compact the output mode onto the rows the non-zeros touch.
    constexpr Index kUntouched = pasta::kMaxIndex;
    std::vector<Index> slot(x.dim(mode), kUntouched);
    std::vector<Index> rows;
    for (Index i : x.mode_indices(mode))
        if (slot[i] == kUntouched) {
            slot[i] = static_cast<Index>(rows.size());
            rows.push_back(i);
        }
    std::vector<Index> dims = x.dims();
    dims[mode] = static_cast<Index>(rows.size());
    pasta::CooTensor compact(dims);
    pasta::CooBulkFill fill = compact.bulk_fill(x.nnz());
    for (Size m = 0; m < x.order(); ++m)
        for (Size p = 0; p < x.nnz(); ++p)
            fill.modes[m][p] = m == mode ? slot[x.index(m, p)] : x.index(m, p);
    std::copy(x.values().begin(), x.values().end(), fill.values);

    const Size rank = out.cols();
    pasta::DenseMatrix unused(rows.size(), rank);
    std::vector<const pasta::DenseMatrix*> compact_factors = factors;
    compact_factors[mode] = &unused;
    pasta::DenseMatrix compact_out(rows.size(), rank);
    for (Size k = 0; k < rows.size(); ++k)
        std::copy(out.row(rows[k]), out.row(rows[k]) + rank,
                  compact_out.row(k));

    pasta::validate::DiffReport report = pasta::validate::diff_mttkrp(
        compact, compact_factors, mode, compact_out);
    for (Size i = 0; i < out.rows(); ++i) {
        if (slot[i] != kUntouched)
            continue;
        for (Size r = 0; r < rank; ++r)
            if (out(i, r) != 0)
                report.add("untouched out(" + std::to_string(i) + "," +
                               std::to_string(r) + ")",
                           0.0, out(i, r), 0.0);
    }
    return report;
}

namespace {

/// Layer a span's self time is charged to.
std::string
layer_of(const std::string& name)
{
    if (name.rfind("e2e.", 0) == 0)
        return name.substr(4);
    if (name.rfind("convert.", 0) == 0)
        return "core.convert";
    if (name.rfind("plan.", 0) == 0) {
        // plan.ttv_hicoo -> kernels.plan.ttv.hicoo
        std::string rest = name.substr(5);
        const std::size_t us = rest.find('_');
        if (us != std::string::npos)
            rest[us] = '.';
        return "kernels.plan." + rest;
    }
    return name;
}

}  // namespace

std::map<std::string, double>
fold_self_times(const std::vector<pasta::obs::SpanRecord>& spans)
{
    struct Node {
        const pasta::obs::SpanRecord* span;
        double end_us;
        double child_us = 0;
        bool excluded;
    };
    std::vector<const pasta::obs::SpanRecord*> order;
    for (const auto& s : spans)
        order.push_back(&s);
    // Per thread, parents open before their children and, on a tie,
    // last longer or sit shallower.
    std::sort(order.begin(), order.end(), [](auto* a, auto* b) {
        if (a->tid != b->tid)
            return a->tid < b->tid;
        if (a->ts_us != b->ts_us)
            return a->ts_us < b->ts_us;
        if (a->dur_us != b->dur_us)
            return a->dur_us > b->dur_us;
        return a->depth < b->depth;
    });

    std::map<std::string, double> self;
    std::vector<Node> stack;
    int tid = -1;
    auto close = [&self](const Node& n) {
        if (!n.excluded)
            self[layer_of(n.span->name)] +=
                std::max(0.0, n.span->dur_us - n.child_us) * 1e-6;
    };
    for (const auto* s : order) {
        if (s->tid != tid) {
            for (; !stack.empty(); stack.pop_back())
                close(stack.back());
            tid = s->tid;
        }
        while (!stack.empty() && stack.back().end_us <= s->ts_us) {
            close(stack.back());
            stack.pop_back();
        }
        bool excluded = s->name == "e2e.check";
        if (!stack.empty()) {
            stack.back().child_us += s->dur_us;
            excluded = excluded || stack.back().excluded;
        }
        stack.push_back({s, s->ts_us + s->dur_us, 0, excluded});
    }
    for (; !stack.empty(); stack.pop_back())
        close(stack.back());
    return self;
}

namespace {

std::string
quote(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

}  // namespace

Json&
Json::num(const std::string& key, double value)
{
    char buf[40];
    if (std::isfinite(value))
        std::snprintf(buf, sizeof(buf), "%.17g", value);
    else
        std::snprintf(buf, sizeof(buf), "null");
    fields_.emplace_back(key, buf);
    return *this;
}

Json&
Json::str(const std::string& key, const std::string& value)
{
    fields_.emplace_back(key, quote(value));
    return *this;
}

Json&
Json::boolean(const std::string& key, bool value)
{
    fields_.emplace_back(key, value ? "true" : "false");
    return *this;
}

Json&
Json::obj(const std::string& key, const Json& value)
{
    fields_.emplace_back(key, value.dump());
    return *this;
}

Json&
Json::nums(const std::string& key, const std::map<std::string, double>& m)
{
    Json o;
    for (const auto& [k, v] : m)
        o.num(k, v);
    return obj(key, o);
}

std::string
Json::dump() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i)
            out += ",";
        out += quote(fields_[i].first) + ":" + fields_[i].second;
    }
    return out + "}";
}

}  // namespace e2e
