#include "validate/diff.hpp"

#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "core/coo_tensor.hpp"
#include "core/dense.hpp"
#include "core/scoo_tensor.hpp"

namespace pasta::validate {

namespace {

constexpr double kEps32 =
    static_cast<double>(std::numeric_limits<float>::epsilon());

/// Head-room multiplier on the forward-error bound: covers the oracle's
/// own (double) rounding, fused reassociation, and the float->double
/// comparison itself without admitting index-level mistakes, whose error
/// is O(1) rather than O(eps).
constexpr double kSlack = 16.0;

/// Tolerance for one accumulated output entry.
double
entry_bound(const OracleEntry& e, double floor)
{
    return kEps32 * kSlack * static_cast<double>(e.terms + 2) * e.abs_sum +
           floor;
}

/// Absolute floor shared by all entries of one output: scaled to the
/// largest oracle magnitude so exact zeros compare cleanly against
/// rounded-to-tiny float results.
double
abs_floor(double max_abs)
{
    return kEps32 * kSlack * max_abs;
}

/// Compares one entry; `where()` builds its label, called only for a
/// mismatch, so a passing check formats no string.
template <typename Where>
void
check_entry(DiffReport& report, Where where, const OracleEntry& e,
            double actual, double floor)
{
    ++report.compared;
    const double err = std::abs(e.value - actual);
    const double bound = entry_bound(e, floor);
    if (!std::isfinite(actual) || err > bound) {
        report.add(where(), e.value, actual, bound);
        return;
    }
    if (bound > 0.0)
        report.max_excess = std::max(report.max_excess, err / bound);
}

std::string
coord_string(const Coordinate& c)
{
    std::ostringstream oss;
    oss << "(";
    for (Size m = 0; m < c.size(); ++m)
        oss << (m ? "," : "") << c[m];
    oss << ")";
    return oss.str();
}

using SparseOracle = std::map<Coordinate, OracleEntry>;

void
accumulate(SparseOracle& oracle, const Coordinate& coord, double term)
{
    OracleEntry& e = oracle[coord];
    e.value += term;
    e.abs_sum += std::abs(term);
    ++e.terms;
}

double
max_abs(const SparseOracle& oracle)
{
    double m = 0.0;
    for (const auto& [coord, e] : oracle)
        m = std::max(m, std::abs(e.value));
    return m;
}

/// Merge-joins the sorted oracle against a canonicalized (sorted,
/// coalesced) actual COO tensor; a coordinate absent on either side is
/// compared as 0 under the floor bound.
void
compare_sparse(DiffReport& report, const SparseOracle& oracle,
               const CooTensor& actual)
{
    const double floor = abs_floor(max_abs(oracle));
    auto it = oracle.begin();
    Size p = 0;
    Coordinate coord;
    while (it != oracle.end() || p < actual.nnz()) {
        int cmp;
        if (it == oracle.end())
            cmp = 1;
        else if (p == actual.nnz())
            cmp = -1;
        else {
            coord = actual.coordinate(p);
            cmp = it->first < coord ? -1 : (coord < it->first ? 1 : 0);
        }
        if (cmp == 0) {
            check_entry(report, [&] { return coord_string(it->first); },
                        it->second, static_cast<double>(actual.value(p)),
                        floor);
            ++it;
            ++p;
        } else if (cmp < 0) {
            // Oracle entry the kernel never produced: compare against 0.
            check_entry(report, [&] { return coord_string(it->first); },
                        it->second, 0.0, floor);
            ++it;
        } else {
            // Kernel produced a coordinate the oracle does not have.
            OracleEntry zero;
            check_entry(
                report, [&] { return coord_string(actual.coordinate(p)); },
                zero, static_cast<double>(actual.value(p)), floor);
            ++p;
        }
    }
}

CooTensor
canonicalized(const CooTensor& x)
{
    CooTensor c = x;
    c.sort_lexicographic();
    c.coalesce();
    return c;
}

}  // namespace

void
DiffReport::add(std::string where, double expected, double actual,
                double bound)
{
    ++mismatched;
    const double err = std::abs(expected - actual);
    if (bound > 0.0)
        max_excess = std::max(max_excess, err / bound);
    if (mismatches.size() < kMaxMismatches)
        mismatches.push_back({std::move(where), expected, actual, err,
                              bound});
}

std::string
DiffReport::summary() const
{
    std::ostringstream oss;
    if (ok()) {
        oss << label << " agrees (" << compared << " entries)";
        return oss.str();
    }
    oss << label << " diverges: " << mismatched << " of " << compared
        << " entries outside tolerance;";
    for (Size i = 0; i < mismatches.size(); ++i) {
        const DiffMismatch& m = mismatches[i];
        oss << (i ? "; " : " ") << m.where << " expected " << m.expected
            << " got " << m.actual << " (err " << m.error << " > bound "
            << m.bound << ")";
    }
    if (mismatched > mismatches.size())
        oss << "; ... " << mismatched - mismatches.size() << " more";
    return oss.str();
}

void
DiffReport::require() const
{
    if (!ok())
        throw ValidationError(summary());
}

DiffReport
diff_tew(EwOp op, const Value* x, const Value* y, const Value* z, Size n)
{
    DiffReport report;
    report.label = "TEW vs scalar oracle";
    double maxv = 0.0;
    for (Size i = 0; i < n; ++i)
        maxv = std::max(
            maxv, std::abs(static_cast<double>(apply_ew(op, x[i], y[i]))));
    const double floor = abs_floor(maxv);
    for (Size i = 0; i < n; ++i) {
        OracleEntry e;
        switch (op) {
          case EwOp::kAdd:
            e.value = static_cast<double>(x[i]) + static_cast<double>(y[i]);
            break;
          case EwOp::kSub:
            e.value = static_cast<double>(x[i]) - static_cast<double>(y[i]);
            break;
          case EwOp::kMul:
            e.value = static_cast<double>(x[i]) * static_cast<double>(y[i]);
            break;
          case EwOp::kDiv:
            e.value = static_cast<double>(x[i]) / static_cast<double>(y[i]);
            break;
        }
        e.abs_sum = std::abs(e.value);
        e.terms = 1;
        check_entry(report, [i] { return "[" + std::to_string(i) + "]"; },
                    e, static_cast<double>(z[i]), floor);
    }
    return report;
}

DiffReport
diff_tew_general(EwOp op, const CooTensor& x, const CooTensor& y,
                 const CooTensor& z)
{
    DiffReport report;
    report.label = "TEW-general vs merge-serial oracle";
    const bool keep_unmatched = (op == EwOp::kAdd || op == EwOp::kSub);
    SparseOracle oracle;
    auto emit = [&](const Coordinate& coord, double a, double b) {
        double value = 0.0;
        switch (op) {
          case EwOp::kAdd: value = a + b; break;
          case EwOp::kSub: value = a - b; break;
          case EwOp::kMul: value = a * b; break;
          case EwOp::kDiv: value = a / b; break;
        }
        OracleEntry& e = oracle[coord];
        e.value = value;
        // Two operand magnitudes feed one output entry.
        e.abs_sum = std::abs(a) + std::abs(b);
        e.terms = 2;
    };
    // Serial two-pointer merge in double precision.
    Size a = 0;
    Size b = 0;
    while (a < x.nnz() && b < y.nnz()) {
        const Coordinate ca = x.coordinate(a);
        const Coordinate cb = y.coordinate(b);
        const int cmp = ca < cb ? -1 : (cb < ca ? 1 : 0);
        if (cmp < 0) {
            if (keep_unmatched)
                emit(ca, static_cast<double>(x.value(a)), 0.0);
            ++a;
        } else if (cmp > 0) {
            if (keep_unmatched)
                emit(cb, 0.0, static_cast<double>(y.value(b)));
            ++b;
        } else {
            emit(ca, static_cast<double>(x.value(a)),
                 static_cast<double>(y.value(b)));
            ++a;
            ++b;
        }
    }
    if (keep_unmatched) {
        for (; a < x.nnz(); ++a)
            emit(x.coordinate(a), static_cast<double>(x.value(a)), 0.0);
        for (; b < y.nnz(); ++b)
            emit(y.coordinate(b), 0.0, static_cast<double>(y.value(b)));
    }
    compare_sparse(report, oracle, canonicalized(z));
    return report;
}

DiffReport
diff_ts(TsOp op, const Value* x, Value s, const Value* out, Size n)
{
    DiffReport report;
    report.label = "TS vs scalar oracle";
    double maxv = 0.0;
    for (Size i = 0; i < n; ++i)
        maxv = std::max(
            maxv, std::abs(static_cast<double>(apply_ts(op, x[i], s))));
    const double floor = abs_floor(maxv);
    for (Size i = 0; i < n; ++i) {
        OracleEntry e;
        e.value = op == TsOp::kAdd
                      ? static_cast<double>(x[i]) + static_cast<double>(s)
                      : static_cast<double>(x[i]) * static_cast<double>(s);
        e.abs_sum = std::abs(e.value);
        e.terms = 1;
        check_entry(report, [i] { return "[" + std::to_string(i) + "]"; },
                    e, static_cast<double>(out[i]), floor);
    }
    return report;
}

DiffReport
diff_ttv(const CooTensor& x, const DenseVector& v, Size mode,
         const CooTensor& actual)
{
    DiffReport report;
    report.label = "TTV vs coo-serial oracle";
    SparseOracle oracle;
    Coordinate out_coord(x.order() > 0 ? x.order() - 1 : 0);
    for (Size p = 0; p < x.nnz(); ++p) {
        Size o = 0;
        for (Size m = 0; m < x.order(); ++m) {
            if (m != mode)
                out_coord[o++] = x.index(m, p);
        }
        const double term =
            static_cast<double>(x.value(p)) *
            static_cast<double>(v[x.index(mode, p)]);
        accumulate(oracle, out_coord, term);
    }
    compare_sparse(report, oracle, canonicalized(actual));
    return report;
}

DiffReport
diff_ttm(const CooTensor& x, const DenseMatrix& u, Size mode,
         const ScooTensor& actual)
{
    DiffReport report;
    report.label = "TTM vs coo-serial oracle";
    const Size rank = u.cols();
    SparseOracle oracle;
    Coordinate out_coord(x.order());
    for (Size p = 0; p < x.nnz(); ++p) {
        for (Size m = 0; m < x.order(); ++m)
            out_coord[m] = x.index(m, p);
        const Index i = x.index(mode, p);
        for (Size r = 0; r < rank; ++r) {
            out_coord[mode] = static_cast<Index>(r);
            const double term = static_cast<double>(x.value(p)) *
                                static_cast<double>(u(i, r));
            accumulate(oracle, out_coord, term);
        }
    }
    compare_sparse(report, oracle, canonicalized(actual.to_coo()));
    return report;
}

DiffReport
diff_mttkrp(const CooTensor& x,
            const std::vector<const DenseMatrix*>& factors, Size mode,
            const DenseMatrix& actual)
{
    DiffReport report;
    report.label = "MTTKRP vs coo-serial oracle";
    const Size rank = actual.cols();
    const Size rows = actual.rows();
    std::vector<OracleEntry> oracle(rows * rank);
    for (Size p = 0; p < x.nnz(); ++p) {
        const Index i = x.index(mode, p);
        for (Size r = 0; r < rank; ++r) {
            double term = static_cast<double>(x.value(p));
            for (Size m = 0; m < x.order(); ++m) {
                if (m != mode)
                    term *= static_cast<double>(
                        (*factors[m])(x.index(m, p), r));
            }
            OracleEntry& e = oracle[i * rank + r];
            e.value += term;
            e.abs_sum += std::abs(term);
            ++e.terms;
        }
    }
    double maxv = 0.0;
    for (const OracleEntry& e : oracle)
        maxv = std::max(maxv, std::abs(e.value));
    const double floor = abs_floor(maxv);
    for (Size i = 0; i < rows; ++i) {
        for (Size r = 0; r < rank; ++r) {
            const auto where = [i, r] {
                return "out(" + std::to_string(i) + "," +
                       std::to_string(r) + ")";
            };
            check_entry(report, where, oracle[i * rank + r],
                        static_cast<double>(actual(i, r)), floor);
        }
    }
    return report;
}

}  // namespace pasta::validate
