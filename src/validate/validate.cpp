#include "validate/validate.hpp"

#include <atomic>
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "common/config.hpp"
#include "common/morton.hpp"
#include "core/block_math.hpp"
#include "core/coo_tensor.hpp"
#include "core/csf_tensor.hpp"
#include "core/ghicoo_tensor.hpp"
#include "core/hicoo_tensor.hpp"
#include "core/scoo_tensor.hpp"
#include "core/shicoo_tensor.hpp"

namespace pasta::validate {

namespace {

/// -1 = not yet read from the environment.
std::atomic<int> g_mode{-1};

}  // namespace

Mode
mode_from_env()
{
    return static_cast<Mode>(config::choice("PASTA_VALIDATE"));
}

Mode
current_mode()
{
    int m = g_mode.load(std::memory_order_relaxed);
    if (m < 0) {
        const Mode env = mode_from_env();
        g_mode.store(static_cast<int>(env), std::memory_order_relaxed);
        return env;
    }
    return static_cast<Mode>(m);
}

void
set_mode(Mode mode)
{
    g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

const char*
mode_name(Mode mode)
{
    switch (mode) {
      case Mode::kOff: return "off";
      case Mode::kConvert: return "convert";
      case Mode::kKernel: return "kernel";
      case Mode::kFull: return "full";
    }
    return "?";
}

bool
convert_checks_enabled()
{
    const Mode m = current_mode();
    return m == Mode::kConvert || m == Mode::kFull;
}

bool
kernel_checks_enabled()
{
    const Mode m = current_mode();
    return m == Mode::kKernel || m == Mode::kFull;
}

bool
full_checks_enabled()
{
    return current_mode() == Mode::kFull;
}

void
ValidationReport::add(std::string code, Size position, std::string detail)
{
    ++violations;
    if (issues.size() < kMaxIssues)
        issues.push_back({std::move(code), position, std::move(detail)});
}

std::string
ValidationReport::summary() const
{
    std::ostringstream oss;
    if (ok()) {
        oss << format << " valid (" << checked << " entries checked)";
        return oss.str();
    }
    oss << format << " invalid: " << violations << " violation(s) in "
        << checked << " entries;";
    for (Size i = 0; i < issues.size(); ++i) {
        const Issue& issue = issues[i];
        oss << (i ? "; " : " ") << issue.code << " at " << issue.position
            << " (" << issue.detail << ")";
    }
    if (violations > issues.size())
        oss << "; ... " << violations - issues.size() << " more";
    return oss.str();
}

void
ValidationReport::require() const
{
    if (!ok())
        throw ValidationError(summary());
}

namespace {

bool
finite(Value v)
{
    return std::isfinite(static_cast<double>(v));
}

/// Checks a value array for non-finite entries.
void
check_finite(ValidationReport& report, const std::vector<Value>& values)
{
    for (Size p = 0; p < values.size(); ++p) {
        if (!finite(values[p])) {
            std::ostringstream oss;
            oss << "value " << values[p];
            report.add("value.finite", p, oss.str());
        }
    }
}

std::string
index_detail(Index seen, Index limit, Size mode)
{
    std::ostringstream oss;
    oss << "index " << seen << " >= dim " << limit << " on mode " << mode;
    return oss.str();
}

/// Lexicographic comparison of coordinate `a` vs `b` of `x`.
int
coo_compare(const CooTensor& x, Size a, Size b)
{
    for (Size m = 0; m < x.order(); ++m) {
        if (x.index(m, a) != x.index(m, b))
            return x.index(m, a) < x.index(m, b) ? -1 : 1;
    }
    return 0;
}

/// Shared core of the HiCOO checks, parameterized over element access so
/// the raw-array entry point and the member-based overloads agree.
/// `bind(mode_slot, block)` / `eind(mode_slot, pos)` address `num_slots`
/// blocked dimension slots whose extents are `slot_dims`.  `tag(p, key)`
/// appends any extra per-entry identity to the duplicate-detection key
/// (gHiCOO entries also differ by their uncompressed raw coordinates).
template <typename BindFn, typename EindFn, typename TagFn>
void
check_blocked(ValidationReport& report, const std::vector<Index>& slot_dims,
              unsigned block_bits, Size num_blocks, Size entries,
              const std::vector<Size>& bptr, BindFn bind, EindFn eind,
              TagFn tag)
{
    const Size num_slots = slot_dims.size();
    const Index block_edge = Index{1} << block_bits;

    // bptr: starts at 0, strictly monotone (no empty blocks), covers all
    // entries.
    if (bptr.empty()) {
        if (entries != 0)
            report.add("bptr.coverage", 0, "empty bptr with entries");
    } else {
        if (bptr.size() != num_blocks + 1) {
            std::ostringstream oss;
            oss << "bptr length " << bptr.size() << " != blocks+1 "
                << num_blocks + 1;
            report.add("bptr.length", 0, oss.str());
            return;  // downstream indexing would be unsafe
        }
        if (bptr.front() != 0)
            report.add("bptr.start", 0, "bptr must start at 0");
        if (bptr.back() != entries) {
            std::ostringstream oss;
            oss << "bptr ends at " << bptr.back() << ", entries "
                << entries;
            report.add("bptr.coverage", num_blocks, oss.str());
        }
        for (Size b = 0; b < num_blocks; ++b) {
            if (bptr[b] >= bptr[b + 1]) {
                std::ostringstream oss;
                oss << "bptr[" << b << "]=" << bptr[b] << " >= bptr["
                    << b + 1 << "]=" << bptr[b + 1];
                report.add("bptr.monotone", b, oss.str());
            }
        }
    }

    // Block indices against the 64-bit-safe block count per slot.
    for (Size s = 0; s < num_slots; ++s) {
        const Size max_blocks = block_count(slot_dims[s], block_bits);
        for (Size b = 0; b < num_blocks; ++b) {
            if (static_cast<Size>(bind(s, b)) >= max_blocks) {
                std::ostringstream oss;
                oss << "block index " << bind(s, b) << " >= "
                    << max_blocks << " blocks of dim " << slot_dims[s]
                    << " on slot " << s;
                report.add("block.range", b, oss.str());
            }
        }
    }

    // Element indices below the block edge, reconstructed coordinates in
    // range, no duplicate coordinates inside a block, blocks Morton-
    // nondecreasing (adjacent equal keys must differ in block coords).
    const bool bptr_usable =
        bptr.size() == num_blocks + 1 && report.violations == 0;
    for (Size s = 0; s < num_slots; ++s) {
        for (Size p = 0; p < entries; ++p) {
            if (eind(s, p) >= block_edge) {
                std::ostringstream oss;
                oss << "element index " << static_cast<unsigned>(eind(s, p))
                    << " >= block edge " << block_edge << " on slot " << s;
                report.add("element.range", p, oss.str());
            }
        }
    }
    if (!bptr_usable)
        return;

    std::vector<Index> prev_coord(num_slots);
    std::vector<Index> block_coord(num_slots);
    std::unordered_set<std::string> in_block;
    std::string key;
    for (Size b = 0; b < num_blocks; ++b) {
        for (Size s = 0; s < num_slots; ++s)
            block_coord[s] = static_cast<Index>(bind(s, b));
        if (b > 0) {
            const int cmp = morton_compare(prev_coord.data(),
                                           block_coord.data(), num_slots);
            if (cmp > 0)
                report.add("block.morton", b,
                           "blocks not in Morton order");
            else if (cmp == 0)
                report.add("block.duplicate", b,
                           "same block coordinates as previous block");
        }
        prev_coord.swap(block_coord);

        in_block.clear();
        for (Size p = bptr[b]; p < bptr[b + 1]; ++p) {
            key.clear();
            for (Size s = 0; s < num_slots; ++s) {
                const Index coord =
                    (static_cast<Index>(bind(s, b)) << block_bits) |
                    eind(s, p);
                if (coord >= slot_dims[s])
                    report.add("coordinate.range", p,
                               index_detail(coord, slot_dims[s], s));
                key.push_back(static_cast<char>(eind(s, p)));
            }
            tag(p, key);
            if (!in_block.insert(key).second)
                report.add("coordinate.duplicate", p,
                           "duplicate coordinate inside block " +
                               std::to_string(b));
        }
    }
}

/// check_blocked with no extra per-entry identity.
template <typename BindFn, typename EindFn>
void
check_blocked(ValidationReport& report, const std::vector<Index>& slot_dims,
              unsigned block_bits, Size num_blocks, Size entries,
              const std::vector<Size>& bptr, BindFn bind, EindFn eind)
{
    check_blocked(report, slot_dims, block_bits, num_blocks, entries, bptr,
                  bind, eind, [](Size, std::string&) {});
}

}  // namespace

ValidationReport
validate(const CooTensor& x)
{
    ValidationReport report;
    report.format = "COO";
    report.checked = x.nnz();
    for (Size m = 0; m < x.order(); ++m) {
        if (x.mode_indices(m).size() != x.nnz()) {
            std::ostringstream oss;
            oss << "mode " << m << " has " << x.mode_indices(m).size()
                << " indices, " << x.nnz() << " values";
            report.add("length", m, oss.str());
            return report;  // positions below would be unsafe
        }
    }
    for (Size m = 0; m < x.order(); ++m) {
        for (Size p = 0; p < x.nnz(); ++p) {
            if (x.index(m, p) >= x.dim(m))
                report.add("index.range", p,
                           index_detail(x.index(m, p), x.dim(m), m));
        }
    }
    for (Size p = 1; p < x.nnz(); ++p) {
        const int cmp = coo_compare(x, p - 1, p);
        if (cmp > 0)
            report.add("order.sorted", p,
                       "non-zeros not lexicographically sorted");
        else if (cmp == 0)
            report.add("coordinate.duplicate", p,
                       "duplicate coordinate (coalesce first)");
    }
    check_finite(report, x.values());
    return report;
}

ValidationReport
validate(const ScooTensor& x)
{
    ValidationReport report;
    report.format = "sCOO";
    report.checked = x.num_sparse();

    // Mode partition: sparse + dense modes, each ascending and disjoint,
    // must cover every mode exactly once.
    std::vector<int> seen(x.order(), 0);
    for (Size mode : x.sparse_modes())
        if (mode < x.order())
            ++seen[mode];
    for (Size mode : x.dense_modes())
        if (mode < x.order())
            ++seen[mode];
    for (Size m = 0; m < x.order(); ++m) {
        if (seen[m] != 1) {
            std::ostringstream oss;
            oss << "mode " << m << " covered " << seen[m]
                << " times by sparse+dense partition";
            report.add("modes.partition", m, oss.str());
        }
    }

    Size volume = 1;
    for (Size mode : x.dense_modes())
        volume *= x.dim(mode);
    if (x.stripe_volume() != volume) {
        std::ostringstream oss;
        oss << "stripe volume " << x.stripe_volume()
            << " != dense extent product " << volume;
        report.add("stripe.volume", 0, oss.str());
    }
    if (x.stripe_volume() != 0 &&
        x.values().size() != x.num_sparse() * x.stripe_volume()) {
        std::ostringstream oss;
        oss << x.values().size() << " values, expected "
            << x.num_sparse() * x.stripe_volume();
        report.add("stripe.length", 0, oss.str());
    }

    const Size ns = x.sparse_modes().size();
    for (Size s = 0; s < ns; ++s) {
        if (x.sparse_mode_indices(s).size() != x.num_sparse()) {
            std::ostringstream oss;
            oss << "slot " << s << " has "
                << x.sparse_mode_indices(s).size() << " indices, "
                << x.num_sparse() << " stripes";
            report.add("length", s, oss.str());
            return report;
        }
    }
    for (Size s = 0; s < ns; ++s) {
        const Index limit = x.dim(x.sparse_modes()[s]);
        for (Size p = 0; p < x.num_sparse(); ++p) {
            if (x.sparse_index(s, p) >= limit)
                report.add("index.range", p,
                           index_detail(x.sparse_index(s, p), limit,
                                        x.sparse_modes()[s]));
        }
    }
    for (Size p = 1; p < x.num_sparse(); ++p) {
        int cmp = 0;
        for (Size s = 0; s < ns && cmp == 0; ++s) {
            if (x.sparse_index(s, p - 1) != x.sparse_index(s, p))
                cmp = x.sparse_index(s, p - 1) < x.sparse_index(s, p) ? -1
                                                                      : 1;
        }
        if (cmp > 0)
            report.add("order.sorted", p,
                       "sparse coordinates not lexicographically sorted");
        else if (cmp == 0)
            report.add("coordinate.duplicate", p,
                       "duplicate sparse coordinate");
    }
    check_finite(report, x.values());
    return report;
}

ValidationReport
validate_hicoo_arrays(const std::vector<Index>& dims, unsigned block_bits,
                      const std::vector<std::vector<BIndex>>& binds,
                      const std::vector<Size>& bptr,
                      const std::vector<std::vector<EIndex>>& einds,
                      const std::vector<Value>& values)
{
    ValidationReport report;
    report.format = "HiCOO";
    report.checked = values.size();
    const Size n = dims.size();
    const Size nb = bptr.empty() ? 0 : bptr.size() - 1;
    if (binds.size() != n || einds.size() != n) {
        report.add("length", 0, "binds/einds mode count mismatch");
        return report;
    }
    for (Size m = 0; m < n; ++m) {
        if (binds[m].size() != nb) {
            std::ostringstream oss;
            oss << "mode " << m << " has " << binds[m].size()
                << " block indices, " << nb << " blocks";
            report.add("length", m, oss.str());
            return report;
        }
        if (einds[m].size() != values.size()) {
            std::ostringstream oss;
            oss << "mode " << m << " has " << einds[m].size()
                << " element indices, " << values.size() << " values";
            report.add("length", m, oss.str());
            return report;
        }
    }
    check_blocked(
        report, dims, block_bits, nb, values.size(), bptr,
        [&](Size s, Size b) { return binds[s][b]; },
        [&](Size s, Size p) { return einds[s][p]; });
    check_finite(report, values);
    return report;
}

ValidationReport
validate(const HiCooTensor& x)
{
    ValidationReport report;
    report.format = "HiCOO";
    report.checked = x.nnz();
    check_blocked(
        report, x.dims(), x.block_bits(), x.num_blocks(), x.nnz(),
        x.bptr(), [&](Size s, Size b) { return x.block_index(s, b); },
        [&](Size s, Size p) { return x.element_index(s, p); });
    check_finite(report, x.values());
    return report;
}

ValidationReport
validate(const GHiCooTensor& x)
{
    ValidationReport report;
    report.format = "gHiCOO";
    report.checked = x.nnz();

    // Blocked checks over the compressed modes only.
    const auto& comp = x.compressed_modes();
    std::vector<Index> comp_dims(comp.size());
    for (Size s = 0; s < comp.size(); ++s)
        comp_dims[s] = x.dim(comp[s]);
    check_blocked(
        report, comp_dims, x.block_bits(), x.num_blocks(), x.nnz(),
        x.bptr(),
        [&](Size s, Size b) { return x.block_index(comp[s], b); },
        [&](Size s, Size p) { return x.element_index(comp[s], p); },
        [&](Size p, std::string& key) {
            // Entries in one block are distinct only together with their
            // uncompressed raw coordinates.
            for (Size mode : x.uncompressed_modes()) {
                const Index raw = x.raw_index(mode, p);
                key.append(reinterpret_cast<const char*>(&raw),
                           sizeof(raw));
            }
        });

    // Uncompressed modes carry plain COO indices.
    for (Size mode : x.uncompressed_modes()) {
        for (Size p = 0; p < x.nnz(); ++p) {
            if (x.raw_index(mode, p) >= x.dim(mode))
                report.add("index.range", p,
                           index_detail(x.raw_index(mode, p), x.dim(mode),
                                        mode));
        }
    }
    check_finite(report, x.values());
    return report;
}

ValidationReport
validate(const SHiCooTensor& x)
{
    ValidationReport report;
    report.format = "sHiCOO";
    report.checked = x.num_sparse();

    Size volume = 1;
    for (Size mode : x.dense_modes())
        volume *= x.dim(mode);
    if (x.stripe_volume() != volume) {
        std::ostringstream oss;
        oss << "stripe volume " << x.stripe_volume()
            << " != dense extent product " << volume;
        report.add("stripe.volume", 0, oss.str());
    }
    if (x.stripe_volume() != 0 &&
        x.values().size() != x.num_sparse() * x.stripe_volume()) {
        std::ostringstream oss;
        oss << x.values().size() << " values, expected "
            << x.num_sparse() * x.stripe_volume();
        report.add("stripe.length", 0, oss.str());
    }

    const auto& sparse = x.sparse_modes();
    std::vector<Index> slot_dims(sparse.size());
    for (Size s = 0; s < sparse.size(); ++s)
        slot_dims[s] = x.dim(sparse[s]);
    check_blocked(
        report, slot_dims, x.block_bits(), x.num_blocks(), x.num_sparse(),
        x.bptr(), [&](Size s, Size b) { return x.block_index(s, b); },
        [&](Size s, Size p) { return x.element_index(s, p); });
    check_finite(report, x.values());
    return report;
}

ValidationReport
validate_csf_arrays(const std::vector<Index>& dims,
                    const std::vector<Size>& mode_order,
                    const std::vector<CsfLevel>& levels,
                    const std::vector<Value>& values)
{
    ValidationReport report;
    report.format = "CSF";
    report.checked = values.size();
    const Size n = dims.size();
    if (levels.size() != n || mode_order.size() != n) {
        report.add("length", 0, "level / mode-order count mismatch");
        return report;
    }
    for (Size m : mode_order) {
        if (m >= n) {
            report.add("modes.partition", m, "mode order entry out of range");
            return report;
        }
    }
    if (values.empty()) {
        check_finite(report, values);
        return report;
    }
    if (levels[n - 1].idx.size() != values.size()) {
        std::ostringstream oss;
        oss << levels[n - 1].idx.size() << " leaves, " << values.size()
            << " values";
        report.add("length", n - 1, oss.str());
        return report;
    }
    for (Size l = 0; l < n; ++l) {
        const Index limit = dims[mode_order[l]];
        for (Size i = 0; i < levels[l].idx.size(); ++i) {
            if (levels[l].idx[i] >= limit)
                report.add("index.range", i,
                           index_detail(levels[l].idx[i], limit,
                                        mode_order[l]));
        }
        if (l + 1 >= n)
            continue;
        const auto& ptr = levels[l].ptr;
        if (ptr.size() != levels[l].idx.size() + 1) {
            std::ostringstream oss;
            oss << "level " << l << " ptr length " << ptr.size()
                << " != nodes+1 " << levels[l].idx.size() + 1;
            report.add("ptr.length", l, oss.str());
            return report;
        }
        if (!ptr.empty() && ptr.front() != 0)
            report.add("ptr.start", l, "ptr must start at 0");
        if (!ptr.empty() && ptr.back() != levels[l + 1].idx.size()) {
            std::ostringstream oss;
            oss << "level " << l << " ptr ends at " << ptr.back()
                << ", next level has " << levels[l + 1].idx.size()
                << " nodes";
            report.add("ptr.coverage", l, oss.str());
        }
        for (Size i = 0; i + 1 < ptr.size(); ++i) {
            if (ptr[i] >= ptr[i + 1]) {
                std::ostringstream oss;
                oss << "level " << l << " node " << i << " is empty";
                report.add("ptr.monotone", i, oss.str());
            }
        }
    }
    // Sibling order: root indices strictly increase; below the root, the
    // children of each node strictly increase (prefix compression breaks
    // otherwise).
    for (Size i = 1; i < levels[0].idx.size(); ++i) {
        if (levels[0].idx[i - 1] >= levels[0].idx[i])
            report.add("order.sorted", i, "root indices not increasing");
    }
    for (Size l = 0; l + 1 < n; ++l) {
        const auto& ptr = levels[l].ptr;
        if (ptr.size() != levels[l].idx.size() + 1)
            continue;  // already reported
        const auto& child = levels[l + 1].idx;
        for (Size i = 0; i + 1 < ptr.size(); ++i) {
            for (Size c = ptr[i] + 1;
                 c < ptr[i + 1] && c < child.size(); ++c) {
                if (child[c - 1] >= child[c]) {
                    std::ostringstream oss;
                    oss << "children of level-" << l << " node " << i
                        << " not strictly increasing";
                    report.add("order.sorted", c, oss.str());
                }
            }
        }
    }
    check_finite(report, values);
    return report;
}

ValidationReport
validate(const CsfTensor& x)
{
    std::vector<CsfLevel> levels(x.num_levels());
    for (Size l = 0; l < x.num_levels(); ++l)
        levels[l] = x.level(l);
    return validate_csf_arrays(x.dims(), x.mode_order(), levels,
                               x.values());
}

}  // namespace pasta::validate
