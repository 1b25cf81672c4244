#include "io/binary_io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/error.hpp"
#include "common/membudget.hpp"
#include "harness/fault.hpp"

namespace pasta {

namespace {

constexpr char kMagic[4] = {'P', 'S', 'T', 'B'};
constexpr std::uint32_t kVersionV2 = 2;  ///< packed sections, no table
constexpr std::uint32_t kVersion = 3;    ///< page-aligned section table

/// Section alignment: one page, so an mmap reader gets naturally
/// aligned typed pointers and partition sweeps touch whole pages.
constexpr std::uint64_t kSectionAlign = 4096;

/// Headers can be corrupted too; bound nnz before trusting it with an
/// allocation (the checksums only protect what we managed to read).
constexpr std::uint64_t kMaxPlausibleNnz = 1ULL << 40;

std::uint64_t
align_up(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) / align * align;
}

template <typename T>
void
write_pod(std::ofstream& out, const T& v)
{
    out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void
read_pod(std::ifstream& in, T& v)
{
    in.read(reinterpret_cast<char*>(&v), sizeof(T));
}

/// Parsed and size-validated v3 header: everything a reader must trust
/// before touching a section.
struct HeaderV3 {
    std::vector<Index> dims;
    std::uint64_t nnz = 0;
    std::vector<std::uint64_t> sections;  ///< order+1 offsets
    std::uint64_t payload_end = 0;        ///< offset of payload checksum
};

/// Byte length of the fixed v3 header for `order` modes.
std::uint64_t
header_bytes_v3(std::uint64_t order)
{
    return 4 + 4 + 8 + 8 + 4 * order + 8 * (order + 1) + 8;
}

/// Validates order/nnz/dims/section table against the actual file size.
/// Every check runs before any section is read, so truncation and
/// corrupt section tables fail up front, never mid-read.
HeaderV3
check_header_v3(const std::string& path, std::uint64_t order,
                std::uint64_t nnz, std::vector<Index> dims,
                std::vector<std::uint64_t> sections,
                std::uint64_t file_size)
{
    PASTA_CHECK_MSG(order >= 1 && order <= 16,
                    "implausible order " << order << " in " << path);
    PASTA_CHECK_MSG(nnz <= kMaxPlausibleNnz,
                    "implausible nnz " << nnz << " in " << path
                                       << " (corrupt header?)");
    const std::uint64_t section_bytes = nnz * sizeof(Index);
    const std::uint64_t header_end = header_bytes_v3(order);
    std::uint64_t prev_end = header_end;
    for (std::uint64_t off : sections) {
        PASTA_CHECK_MSG(off % kSectionAlign == 0 && off >= prev_end,
                        "corrupt PSTB section table in "
                            << path << ": offset " << off
                            << " misaligned or overlapping");
        prev_end = off + section_bytes;
        PASTA_CHECK_MSG(prev_end >= off,
                        "corrupt PSTB section table in " << path);
    }
    HeaderV3 h;
    h.payload_end = prev_end;
    // Exact-size check: header promises sections + one trailing
    // checksum word; a short file is truncation, a long one corruption.
    PASTA_CHECK_MSG(
        file_size == prev_end + sizeof(std::uint64_t),
        "truncated PSTB file " << path << ": header promises "
                               << (prev_end + sizeof(std::uint64_t))
                               << " bytes, file has " << file_size
                               << " (refusing to read a partial tensor)");
    h.dims = std::move(dims);
    h.nnz = nnz;
    h.sections = std::move(sections);
    return h;
}

/// v2 body: packed sections right after the header, trailing checksum.
CooTensor
read_body_v2(std::ifstream& in, const std::string& path)
{
    std::uint64_t order = 0;
    std::uint64_t nnz = 0;
    read_pod(in, order);
    read_pod(in, nnz);
    PASTA_CHECK_MSG(in.good() && order >= 1 && order <= 16,
                    "implausible order " << order << " in " << path);
    PASTA_CHECK_MSG(nnz <= kMaxPlausibleNnz,
                    "implausible nnz " << nnz << " in " << path
                                       << " (corrupt header?)");
    std::uint64_t checksum = fnv1a64(nullptr, 0);
    std::vector<Index> dims(order);
    for (auto& d : dims) {
        read_pod(in, d);
        checksum = fnv1a64(&d, sizeof(d), checksum);
    }
    // Before trusting nnz with an allocation, bound it against the bytes
    // actually present: a truncated-but-plausible header must not drive a
    // multi-GB resize only to fail the checksum afterwards.
    const std::streamoff payload_start = in.tellg();
    in.seekg(0, std::ios::end);
    const std::streamoff file_end = in.tellg();
    in.seekg(payload_start, std::ios::beg);
    PASTA_CHECK_MSG(in.good() && payload_start >= 0 &&
                        file_end >= payload_start,
                    "cannot size " << path);
    const std::uint64_t remaining =
        static_cast<std::uint64_t>(file_end - payload_start);
    const std::uint64_t expected =
        nnz * (order * sizeof(Index) + sizeof(Value)) + sizeof(checksum);
    PASTA_CHECK_MSG(remaining >= expected,
                    "truncated PSTB file "
                        << path << ": header promises " << expected
                        << " payload bytes, " << remaining
                        << " present (refusing allocation)");
    membudget::check(membudget::coo_bytes(order, nnz), "binary_io.read");
    CooTensor x(dims);
    x.resize_nnz(nnz);
    for (Size m = 0; m < x.order(); ++m) {
        in.read(reinterpret_cast<char*>(x.mode_indices(m).data()),
                static_cast<std::streamsize>(nnz * sizeof(Index)));
        checksum = fnv1a64(x.mode_indices(m).data(), nnz * sizeof(Index),
                           checksum);
    }
    in.read(reinterpret_cast<char*>(x.values().data()),
            static_cast<std::streamsize>(nnz * sizeof(Value)));
    checksum = fnv1a64(x.values().data(), nnz * sizeof(Value), checksum);
    PASTA_CHECK_MSG(in.good(), "truncated PSTB file " << path);
    std::uint64_t stored = 0;
    read_pod(in, stored);
    PASTA_CHECK_MSG(in.good(), "truncated PSTB file " << path
                                                      << " (no checksum)");
    PASTA_CHECK_MSG(stored == checksum,
                    "checksum mismatch in " << path << " (stored 0x"
                                            << std::hex << stored
                                            << ", computed 0x" << checksum
                                            << std::dec
                                            << "): corrupt cache entry");
    return x;
}

/// Reads and validates a v3 header from an open stream positioned right
/// after the version word.
HeaderV3
read_header_v3(std::ifstream& in, const std::string& path)
{
    std::uint64_t order = 0;
    std::uint64_t nnz = 0;
    read_pod(in, order);
    read_pod(in, nnz);
    PASTA_CHECK_MSG(in.good() && order >= 1 && order <= 16,
                    "implausible order " << order << " in " << path);
    PASTA_CHECK_MSG(nnz <= kMaxPlausibleNnz,
                    "implausible nnz " << nnz << " in " << path
                                       << " (corrupt header?)");
    std::uint64_t hsum = fnv1a64(&order, sizeof(order));
    hsum = fnv1a64(&nnz, sizeof(nnz), hsum);
    std::vector<Index> dims(order);
    for (auto& d : dims) {
        read_pod(in, d);
        hsum = fnv1a64(&d, sizeof(d), hsum);
    }
    std::vector<std::uint64_t> sections(order + 1);
    for (auto& s : sections) {
        read_pod(in, s);
        hsum = fnv1a64(&s, sizeof(s), hsum);
    }
    std::uint64_t stored_hsum = 0;
    read_pod(in, stored_hsum);
    PASTA_CHECK_MSG(in.good(), "truncated PSTB header in " << path);
    PASTA_CHECK_MSG(stored_hsum == hsum,
                    "header checksum mismatch in "
                        << path << ": corrupt section table");
    in.seekg(0, std::ios::end);
    const std::streamoff file_end = in.tellg();
    PASTA_CHECK_MSG(in.good() && file_end >= 0, "cannot size " << path);
    return check_header_v3(path, order, nnz, std::move(dims),
                           std::move(sections),
                           static_cast<std::uint64_t>(file_end));
}

/// v3 body: seek each section from the validated table.
CooTensor
read_body_v3(std::ifstream& in, const std::string& path)
{
    const HeaderV3 h = read_header_v3(in, path);
    const std::uint64_t order = h.dims.size();
    membudget::check(membudget::coo_bytes(order, h.nnz), "binary_io.read");
    std::uint64_t checksum = fnv1a64(nullptr, 0);
    for (const Index& d : h.dims)
        checksum = fnv1a64(&d, sizeof(d), checksum);
    CooTensor x(h.dims);
    x.resize_nnz(h.nnz);
    for (Size m = 0; m < x.order(); ++m) {
        in.seekg(static_cast<std::streamoff>(h.sections[m]),
                 std::ios::beg);
        in.read(reinterpret_cast<char*>(x.mode_indices(m).data()),
                static_cast<std::streamsize>(h.nnz * sizeof(Index)));
        checksum = fnv1a64(x.mode_indices(m).data(),
                           h.nnz * sizeof(Index), checksum);
    }
    in.seekg(static_cast<std::streamoff>(h.sections[order]),
             std::ios::beg);
    in.read(reinterpret_cast<char*>(x.values().data()),
            static_cast<std::streamsize>(h.nnz * sizeof(Value)));
    checksum = fnv1a64(x.values().data(), h.nnz * sizeof(Value), checksum);
    PASTA_CHECK_MSG(in.good(), "cannot read sections of " << path);
    in.seekg(static_cast<std::streamoff>(h.payload_end), std::ios::beg);
    std::uint64_t stored = 0;
    read_pod(in, stored);
    PASTA_CHECK_MSG(in.good() && stored == checksum,
                    "checksum mismatch in " << path << " (stored 0x"
                                            << std::hex << stored
                                            << ", computed 0x" << checksum
                                            << std::dec
                                            << "): corrupt cache entry");
    return x;
}

/// Page-aligned section table for an order x nnz tensor: order index
/// sections then the value section, each starting on a kSectionAlign
/// boundary after the fixed-size header.
std::vector<std::uint64_t>
compute_sections(std::uint64_t order, std::uint64_t nnz)
{
    std::vector<std::uint64_t> sections(order + 1);
    const std::uint64_t section_bytes = nnz * sizeof(Index);
    std::uint64_t cursor = align_up(header_bytes_v3(order), kSectionAlign);
    for (auto& s : sections) {
        s = cursor;
        cursor = align_up(cursor + section_bytes, kSectionAlign);
    }
    return sections;
}

/// Writes the v3 header (magic through header checksum) and chains dims
/// into `payload_checksum`, the seed for the trailing payload FNV.
void
write_header_v3(std::ofstream& out, const std::vector<Index>& dims,
                std::uint64_t nnz,
                const std::vector<std::uint64_t>& sections,
                std::uint64_t& payload_checksum)
{
    const std::uint64_t order = dims.size();
    out.write(kMagic, sizeof(kMagic));
    write_pod(out, kVersion);
    std::uint64_t hsum = fnv1a64(&order, sizeof(order));
    hsum = fnv1a64(&nnz, sizeof(nnz), hsum);
    write_pod(out, order);
    write_pod(out, nnz);
    payload_checksum = fnv1a64(nullptr, 0);
    for (const Index d : dims) {
        write_pod(out, d);
        hsum = fnv1a64(&d, sizeof(d), hsum);
        payload_checksum = fnv1a64(&d, sizeof(d), payload_checksum);
    }
    for (const std::uint64_t s : sections) {
        write_pod(out, s);
        hsum = fnv1a64(&s, sizeof(s), hsum);
    }
    write_pod(out, hsum);
}

/// Zero-fills the stream up to absolute offset `target`.
void
pad_to(std::ofstream& out, std::uint64_t target)
{
    static const char zeros[256] = {};
    auto at = static_cast<std::uint64_t>(out.tellp());
    while (at < target) {
        const std::uint64_t n =
            std::min<std::uint64_t>(sizeof(zeros), target - at);
        out.write(zeros, static_cast<std::streamsize>(n));
        at += n;
    }
}

}  // namespace

std::uint64_t
fnv1a64(const void* data, std::size_t n, std::uint64_t seed)
{
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

void
write_binary_file(const std::string& path, const CooTensor& x)
{
    std::ofstream out(path, std::ios::binary);
    PASTA_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
    const std::uint64_t order = x.order();
    const std::uint64_t nnz = x.nnz();
    const std::vector<std::uint64_t> sections =
        compute_sections(order, nnz);

    std::uint64_t checksum = 0;
    write_header_v3(out, x.dims(), nnz, sections, checksum);
    for (Size m = 0; m < x.order(); ++m) {
        pad_to(out, sections[m]);
        const auto& idx = x.mode_indices(m);
        out.write(reinterpret_cast<const char*>(idx.data()),
                  static_cast<std::streamsize>(nnz * sizeof(Index)));
        checksum = fnv1a64(idx.data(), nnz * sizeof(Index), checksum);
    }
    pad_to(out, sections[order]);
    out.write(reinterpret_cast<const char*>(x.values().data()),
              static_cast<std::streamsize>(nnz * sizeof(Value)));
    checksum = fnv1a64(x.values().data(), nnz * sizeof(Value), checksum);
    write_pod(out, checksum);
    PASTA_CHECK_MSG(out.good(), "write to " << path << " failed");
}

void
concat_binary_files(const std::string& out_path,
                    const std::vector<Index>& dims,
                    const std::vector<std::string>& parts)
{
    const std::uint64_t order = dims.size();
    PASTA_CHECK_MSG(order >= 1, "tensor order must be at least 1");
    std::vector<MappedCooTensor> maps;
    maps.reserve(parts.size());
    std::uint64_t nnz = 0;
    for (const std::string& part : parts) {
        maps.emplace_back(part);
        PASTA_CHECK_MSG(maps.back().dims() == dims,
                        "part " << part
                                << " dims differ from the target tensor");
        nnz += maps.back().nnz();
    }

    std::ofstream out(out_path, std::ios::binary);
    PASTA_CHECK_MSG(out.good(),
                    "cannot open " << out_path << " for writing");
    const std::vector<std::uint64_t> sections =
        compute_sections(order, nnz);
    std::uint64_t checksum = 0;
    write_header_v3(out, dims, nnz, sections, checksum);
    for (std::uint64_t m = 0; m < order; ++m) {
        pad_to(out, sections[m]);
        for (const MappedCooTensor& part : maps) {
            const std::uint64_t bytes = part.nnz() * sizeof(Index);
            out.write(reinterpret_cast<const char*>(part.mode_indices(m)),
                      static_cast<std::streamsize>(bytes));
            checksum = fnv1a64(part.mode_indices(m), bytes, checksum);
        }
    }
    pad_to(out, sections[order]);
    for (const MappedCooTensor& part : maps) {
        const std::uint64_t bytes = part.nnz() * sizeof(Value);
        out.write(reinterpret_cast<const char*>(part.values()),
                  static_cast<std::streamsize>(bytes));
        checksum = fnv1a64(part.values(), bytes, checksum);
    }
    write_pod(out, checksum);
    PASTA_CHECK_MSG(out.good(), "write to " << out_path << " failed");
}

CooTensor
read_binary_file(const std::string& path)
{
    harness::fault_point("io.read");
    std::ifstream in(path, std::ios::binary);
    PASTA_CHECK_MSG(in.good(), "cannot open " << path);
    char magic[4];
    in.read(magic, sizeof(magic));
    PASTA_CHECK_MSG(in.good() && std::memcmp(magic, kMagic, 4) == 0,
                    path << " is not a PSTB file");
    std::uint32_t version = 0;
    read_pod(in, version);
    PASTA_CHECK_MSG(version == kVersionV2 || version == kVersion,
                    "unsupported PSTB version " << version << " in " << path
                                                << " (expected " << kVersionV2
                                                << " or " << kVersion
                                                << ")");
    CooTensor x = version == kVersionV2 ? read_body_v2(in, path)
                                        : read_body_v3(in, path);
    for (Size p = 0; p < x.nnz(); ++p)
        PASTA_CHECK_MSG(std::isfinite(static_cast<double>(x.value(p))),
                        "non-finite value " << x.value(p) << " at non-zero "
                                            << p << " in " << path);
    // PSTB promises lengths, index ranges and finite values — checked
    // here unconditionally — but not sorted or duplicate-free order, so
    // the canonical COO validator does not belong at this boundary.
    x.validate();
    return x;
}

MappedCooTensor::MappedCooTensor(const std::string& path) : path_(path)
{
    harness::fault_point("io.mmap");
    HeaderV3 header;
    {
        std::ifstream in(path, std::ios::binary);
        PASTA_CHECK_MSG(in.good(), "cannot open " << path);
        char magic[4];
        in.read(magic, sizeof(magic));
        PASTA_CHECK_MSG(in.good() && std::memcmp(magic, kMagic, 4) == 0,
                        path << " is not a PSTB file");
        std::uint32_t version = 0;
        read_pod(in, version);
        PASTA_CHECK_MSG(version == kVersion,
                        "cannot mmap PSTB version "
                            << version << " in " << path << " (version "
                            << kVersion
                            << " with page-aligned sections required; "
                               "rewrite with write_binary_file)");
        header = read_header_v3(in, path);
    }

    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    PASTA_CHECK_MSG(fd >= 0, "cannot open " << path << " for mmap");
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        throw PastaError("cannot stat " + path);
    }
    map_bytes_ = static_cast<std::uint64_t>(st.st_size);
    void* map = ::mmap(nullptr, map_bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    PASTA_CHECK_MSG(map != MAP_FAILED, "mmap of " << path << " failed");
    map_ = map;
    dims_ = std::move(header.dims);
    nnz_ = header.nnz;
    section_offsets_ = std::move(header.sections);
    std::memcpy(&stored_checksum_,
                static_cast<const char*>(map_) + header.payload_end,
                sizeof(stored_checksum_));
}

MappedCooTensor::MappedCooTensor(MappedCooTensor&& other) noexcept
    : path_(std::move(other.path_)),
      dims_(std::move(other.dims_)),
      nnz_(other.nnz_),
      map_(other.map_),
      map_bytes_(other.map_bytes_),
      section_offsets_(std::move(other.section_offsets_)),
      stored_checksum_(other.stored_checksum_)
{
    other.map_ = nullptr;
    other.map_bytes_ = 0;
    other.nnz_ = 0;
}

MappedCooTensor&
MappedCooTensor::operator=(MappedCooTensor&& other) noexcept
{
    if (this != &other) {
        unmap();
        path_ = std::move(other.path_);
        dims_ = std::move(other.dims_);
        nnz_ = other.nnz_;
        map_ = other.map_;
        map_bytes_ = other.map_bytes_;
        section_offsets_ = std::move(other.section_offsets_);
        stored_checksum_ = other.stored_checksum_;
        other.map_ = nullptr;
        other.map_bytes_ = 0;
        other.nnz_ = 0;
    }
    return *this;
}

MappedCooTensor::~MappedCooTensor() { unmap(); }

void
MappedCooTensor::unmap() noexcept
{
    if (map_) {
        ::munmap(map_, map_bytes_);
        map_ = nullptr;
        map_bytes_ = 0;
    }
}

const Index*
MappedCooTensor::mode_indices(Size mode) const
{
    PASTA_CHECK_MSG(mode < order(), "mode " << mode << " out of range");
    return reinterpret_cast<const Index*>(static_cast<const char*>(map_) +
                                          section_offsets_[mode]);
}

const Value*
MappedCooTensor::values() const
{
    return reinterpret_cast<const Value*>(static_cast<const char*>(map_) +
                                          section_offsets_[order()]);
}

CooTensor
MappedCooTensor::slice(Size lo, Size hi) const
{
    PASTA_CHECK_MSG(lo <= hi && hi <= nnz_,
                    "slice [" << lo << ", " << hi << ") out of range for "
                              << nnz_ << " non-zeros");
    const Size n = hi - lo;
    membudget::check(membudget::coo_bytes(order(), n), "mmap.slice");
    CooTensor x(dims_);
    CooBulkFill fill = x.bulk_fill(n);
    for (Size m = 0; m < order(); ++m)
        std::memcpy(fill.modes[m], mode_indices(m) + lo,
                    n * sizeof(Index));
    std::memcpy(fill.values, values() + lo, n * sizeof(Value));
    return x;
}

CooTensor
MappedCooTensor::to_coo() const
{
    return slice(0, nnz_);
}

bool
MappedCooTensor::verify_checksum() const
{
    std::uint64_t checksum = fnv1a64(nullptr, 0);
    for (const Index& d : dims_)
        checksum = fnv1a64(&d, sizeof(d), checksum);
    for (Size m = 0; m < order(); ++m)
        checksum =
            fnv1a64(mode_indices(m), nnz_ * sizeof(Index), checksum);
    checksum = fnv1a64(values(), nnz_ * sizeof(Value), checksum);
    return checksum == stored_checksum_;
}

}  // namespace pasta
