#include "io/tns_io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "harness/fault.hpp"

namespace pasta {

namespace {

/// Splits a .tns line into whitespace-separated numeric fields; returns
/// false for blank/comment lines.  `lineno` names the offender in errors.
bool
parse_fields(const std::string& line, std::size_t lineno,
             std::vector<double>& fields)
{
    fields.clear();
    std::istringstream iss(line);
    std::string tok;
    while (iss >> tok) {
        if (tok[0] == '#')
            break;
        try {
            size_t used = 0;
            fields.push_back(std::stod(tok, &used));
            if (used != tok.size())
                throw PastaError("trailing characters in field '" + tok +
                                 "' at line " + std::to_string(lineno));
        } catch (const PastaError&) {
            throw;
        } catch (const std::exception&) {
            throw PastaError("malformed numeric field '" + tok +
                             "' at line " + std::to_string(lineno));
        }
    }
    return !fields.empty();
}

/// Largest coordinate representable: 1-based input must fit Index after
/// the -1 shift, and dims are Index too.
constexpr double kMaxCoordinate =
    static_cast<double>(std::numeric_limits<Index>::max());

/// Largest magnitude a value may have: beyond it the cast to Value would
/// yield an infinity.
constexpr double kMaxValue =
    static_cast<double>(std::numeric_limits<Value>::max());

}  // namespace

CooTensor
read_tns(std::istream& in)
{
    std::string line;
    std::vector<double> fields;
    std::vector<std::vector<double>> rows;
    std::vector<std::size_t> row_lines;  ///< source line per non-zero row
    std::size_t lineno = 0;
    bool maybe_header = true;
    Size order = 0;
    std::vector<Index> header_dims;

    while (std::getline(in, line)) {
        ++lineno;
        if (!parse_fields(line, lineno, fields))
            continue;
        if (maybe_header && fields.size() == 1 && header_dims.empty()) {
            // ParTI header: the order alone on the first data line.
            const double n = fields[0];
            PASTA_CHECK_MSG(n >= 1 && n <= 16 && n == std::floor(n),
                            "implausible header order " << n << " at line "
                                                        << lineno);
            order = static_cast<Size>(n);
            // Next non-comment line must be the dims.
            bool got_dims = false;
            while (std::getline(in, line)) {
                ++lineno;
                if (!parse_fields(line, lineno, fields))
                    continue;
                PASTA_CHECK_MSG(fields.size() == order,
                                "header dims arity "
                                    << fields.size() << " != order " << order
                                    << " at line " << lineno);
                for (double d : fields) {
                    PASTA_CHECK_MSG(d >= 1 && d == std::floor(d) &&
                                        d <= kMaxCoordinate,
                                    "bad header dimension " << d
                                                            << " at line "
                                                            << lineno);
                    header_dims.push_back(static_cast<Index>(d));
                }
                got_dims = true;
                break;
            }
            PASTA_CHECK_MSG(got_dims, "header order without dims line");
            maybe_header = false;
            continue;
        }
        maybe_header = false;
        PASTA_CHECK_MSG(fields.size() >= 2,
                        "non-zero line needs >= 1 coordinate and a value "
                        "at line "
                            << lineno);
        if (order == 0)
            order = fields.size() - 1;
        PASTA_CHECK_MSG(fields.size() == order + 1,
                        "inconsistent arity: got "
                            << fields.size() - 1 << " coords, expected "
                            << order << " at line " << lineno);
        // Validate while the line number is at hand: coordinates must be
        // integral, 1-based, and fit Index (casting later would silently
        // wrap); values must be finite (a NaN poisons every downstream
        // reduction without ever failing a check).
        for (Size m = 0; m < order; ++m) {
            const double idx = fields[m];
            PASTA_CHECK_MSG(idx >= 1 && idx == std::floor(idx),
                            "bad 1-based coordinate " << idx << " on mode "
                                                      << m << " at line "
                                                      << lineno);
            PASTA_CHECK_MSG(idx <= kMaxCoordinate,
                            "coordinate " << idx << " on mode " << m
                                          << " overflows Index at line "
                                          << lineno);
        }
        PASTA_CHECK_MSG(std::isfinite(fields[order]),
                        "non-finite value " << fields[order] << " at line "
                                            << lineno);
        PASTA_CHECK_MSG(std::abs(fields[order]) <= kMaxValue,
                        "value " << fields[order]
                                 << " overflows Value at line " << lineno);
        rows.push_back(fields);
        row_lines.push_back(lineno);
    }

    PASTA_CHECK_MSG(order > 0, "empty .tns input");
    std::vector<Index> dims = header_dims;
    if (dims.empty()) {
        dims.assign(order, 1);
        for (const auto& row : rows)
            for (Size m = 0; m < order; ++m)
                dims[m] = std::max(dims[m], static_cast<Index>(row[m]));
    }

    CooTensor out(dims);
    out.reserve(rows.size());
    Coordinate c(order);
    for (Size r = 0; r < rows.size(); ++r) {
        const auto& row = rows[r];
        for (Size m = 0; m < order; ++m) {
            const double idx = row[m];
            PASTA_CHECK_MSG(idx <= static_cast<double>(dims[m]),
                            "coordinate " << idx << " exceeds dim "
                                          << dims[m] << " on mode " << m
                                          << " at line " << row_lines[r]);
            c[m] = static_cast<Index>(idx) - 1;
        }
        out.append(c, static_cast<Value>(row[order]));
    }
    out.sort_lexicographic();
    out.validate();
    return out;
}

CooTensor
read_tns_file(const std::string& path)
{
    harness::fault_point("io.read");
    std::ifstream in(path);
    PASTA_CHECK_MSG(in.good(), "cannot open " << path);
    return read_tns(in);
}

void
write_tns(std::ostream& out, const CooTensor& x, bool with_header)
{
    if (with_header) {
        out << x.order() << "\n";
        for (Size m = 0; m < x.order(); ++m)
            out << x.dim(m) << (m + 1 < x.order() ? " " : "\n");
    }
    for (Size p = 0; p < x.nnz(); ++p) {
        for (Size m = 0; m < x.order(); ++m)
            out << (x.index(m, p) + 1) << ' ';
        out << x.value(p) << '\n';
    }
}

void
write_tns_file(const std::string& path, const CooTensor& x,
               bool with_header)
{
    std::ofstream out(path);
    PASTA_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
    write_tns(out, x, with_header);
    PASTA_CHECK_MSG(out.good(), "write to " << path << " failed");
}

}  // namespace pasta
