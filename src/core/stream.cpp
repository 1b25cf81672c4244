#include "core/stream.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "common/fsutil.hpp"
#include "common/log.hpp"
#include "common/membudget.hpp"
#include "common/parallel.hpp"
#include "core/sort_radix.hpp"
#include "kernels/ttv.hpp"
#include "obs/counters.hpp"

namespace pasta::stream {

namespace {

/// Stack budget for the per-run accumulator row, matching the parallel
/// MTTKRP kernels' limit.
constexpr Size kMaxStackRank = 256;

/// Finest split the planner will consider: 2^12 partitions.
constexpr unsigned kMaxPartitionBits = 12;

/// Working-set bytes charged for a chunk of `n` non-zeros: the gathered
/// COO arrays, a per-chunk sorted copy (TTV planning copies the chunk),
/// and radix key + permutation + apply scratch.  Deliberately
/// conservative — every governor probe a chunk triggers stays at or
/// under this figure, which is what lets tests assert peak <= budget.
std::uint64_t
chunk_cost(Size order, Size n)
{
    return 2 * membudget::coo_bytes(order, n) + std::uint64_t{24} * n;
}

/// Remaining governor budget to plan chunks against; with no budget
/// armed, an eighth of the tensor's full cost (so direct calls to the
/// stream kernels still exercise a real multi-partition sweep).
std::uint64_t
default_chunk_budget(const MappedCooTensor& x)
{
    auto& gov = membudget::MemGovernor::instance();
    if (gov.enabled()) {
        const std::uint64_t budget = gov.budget();
        const std::uint64_t held = gov.reserved();
        return budget > held ? budget - held : 0;
    }
    const std::uint64_t full = chunk_cost(x.order(), x.nnz());
    return std::max(full / 8, chunk_cost(x.order(), Size{1} << 16));
}

std::string
stream_variant_name(const char* kernel, Size partitions)
{
    return std::string(kernel) + "_stream_p" + std::to_string(partitions);
}

void
note_decision(const StreamDecision& d)
{
    obs::set_label("stream.variant", d.variant);
    obs::add("stream.partitions", d.partitions);
}

/// Output rows [begin, begin + count) owned by MTTKRP partition `p`:
/// the product-mode indices whose top bits select `p`, clamped to the
/// matrix (trailing partitions of a non-power-of-two extent own none).
struct RowRange {
    Size begin = 0;
    Size count = 0;
};

RowRange
partition_rows(const PartitionPlan& plan, Size p, Size rows)
{
    const Size begin = std::min(p << plan.shift, rows);
    const Size end = std::min((p + 1) << plan.shift, rows);
    return {begin, end - begin};
}

/// PSCK v2 checkpoint: an append-only log (all fields host-order).
///   header: magic "PSCK" | u32 version | u64 mode | u64 partitions |
///           u64 rows | u64 cols | u64 fnv64(preceding header bytes)
///   record: u64 p | u64 row_begin | u64 row_count |
///           Value data[row_count * cols] | u64 fnv64(record fields+data,
///           seeded with the header checksum)
/// The header is published once (tmp + fsync + rename + dir fsync);
/// each finished partition then appends its own rows and fsyncs, so a
/// sweep writes O(output) bytes in total rather than O(P x output).  A
/// kill mid-append leaves a torn tail that replay detects and cuts off.
constexpr char kCkptMagic[4] = {'P', 'S', 'C', 'K'};
constexpr std::uint32_t kCkptVersion = 2;

struct CkptHeader {
    char magic[4];
    std::uint32_t version;
    std::uint64_t mode, partitions, rows, cols;
    std::uint64_t checksum;
};
static_assert(sizeof(CkptHeader) == 48, "PSCK header must be unpadded");

struct CkptRecordHead {
    std::uint64_t p, row_begin, row_count;
};

CkptHeader
make_header(Size mode, Size partitions, const DenseMatrix& out)
{
    CkptHeader h{};
    std::memcpy(h.magic, kCkptMagic, sizeof(kCkptMagic));
    h.version = kCkptVersion;
    h.mode = mode;
    h.partitions = partitions;
    h.rows = out.rows();
    h.cols = out.cols();
    h.checksum = fnv1a64(&h, offsetof(CkptHeader, checksum));
    return h;
}

/// Reads exactly `n` bytes at `offset`; false on EOF or error.
bool
pread_exact(int fd, std::uint64_t offset, void* dst, std::size_t n)
{
    auto* p = static_cast<char*>(dst);
    while (n > 0) {
        const ssize_t got = ::pread(fd, p, n, static_cast<off_t>(offset));
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return false;
        p += got;
        offset += static_cast<std::uint64_t>(got);
        n -= static_cast<std::size_t>(got);
    }
    return true;
}

void
pwrite_all(int fd, std::uint64_t offset, const void* src, std::size_t n,
           const std::string& path)
{
    const auto* p = static_cast<const char*>(src);
    while (n > 0) {
        const ssize_t put = ::pwrite(fd, p, n, static_cast<off_t>(offset));
        if (put < 0 && errno == EINTR)
            continue;
        if (put < 0)
            throw PastaError("write to checkpoint " + path + " failed");
        p += put;
        offset += static_cast<std::uint64_t>(put);
        n -= static_cast<std::size_t>(put);
    }
}

/// An open PSCK v2 log for one MTTKRP sweep.  Rows move straight
/// between the file and `out` — no output-sized staging buffer ever
/// exists outside the governor's view.
class CheckpointLog {
  public:
    /// Opens the log at `path` for (mode, plan, out shape), publishing a
    /// fresh header when the file is missing, of another version, or
    /// describes a different sweep.
    CheckpointLog(const std::string& path, Size mode,
                  const PartitionPlan& plan, DenseMatrix& out)
        : path_(path), plan_(plan), out_(out),
          header_(make_header(mode, plan.partitions, out))
    {
        // A SIGKILL mid-publish leaves a stale half-written tmp next to
        // the log; clear it so it can never be mistaken for anything.
        std::error_code tmp_ec;
        std::filesystem::remove(path_ + ".tmp", tmp_ec);
        fd_ = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
        CkptHeader found{};
        if (fd_ >= 0 && pread_exact(fd_, 0, &found, sizeof(found)) &&
            std::memcmp(&found, &header_, sizeof(found)) == 0)
            return;
        if (fd_ >= 0)
            ::close(fd_);
        fsutil::write_file_durable(
            path_, std::string(reinterpret_cast<const char*>(&header_),
                               sizeof(header_)));
        obs::add("stream.checkpoint_bytes", sizeof(header_));
        fd_ = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
        PASTA_CHECK_MSG(fd_ >= 0, "cannot reopen checkpoint " << path_);
    }
    CheckpointLog(const CheckpointLog&) = delete;
    CheckpointLog& operator=(const CheckpointLog&) = delete;
    ~CheckpointLog() { ::close(fd_); }

    /// Replays records for partitions 0, 1, ... into the output
    /// (which must be zero) and stops at the first one that is missing,
    /// torn, out of sequence, or fails its checksum — re-zeroing any
    /// rows a bad record partly filled.  Truncates the file to the valid
    /// prefix so appends continue from there; returns the first
    /// partition the sweep still has to compute.
    Size replay()
    {
        Size p = 0;
        for (; p < plan_.partitions; ++p) {
            const RowRange rows = partition_rows(plan_, p, out_.rows());
            CkptRecordHead head{};
            // Framing is checked against the plan before any data is
            // read, so a hostile row_count can never size a read.
            if (!pread_exact(fd_, end_, &head, sizeof(head)) ||
                head.p != p || head.row_begin != rows.begin ||
                head.row_count != rows.count)
                break;
            Value* data = out_.row(rows.begin);
            const Size values = rows.count * out_.cols();
            const std::size_t bytes = values * sizeof(Value);
            std::uint64_t stored = 0;
            if (!pread_exact(fd_, end_ + sizeof(head), data, bytes) ||
                !pread_exact(fd_, end_ + sizeof(head) + bytes, &stored,
                             sizeof(stored)) ||
                stored != record_checksum(head, data, bytes)) {
                std::fill(data, data + values, Value{0});
                break;
            }
            end_ += sizeof(head) + bytes + sizeof(stored);
        }
        PASTA_CHECK_MSG(::ftruncate(fd_, static_cast<off_t>(end_)) == 0,
                        "cannot truncate checkpoint " << path_);
        return p;
    }

    /// Appends partition `p`'s rows of `out_` and fsyncs, so the record
    /// is durable before the caller reports the partition done.
    void append(Size p)
    {
        const RowRange rows = partition_rows(plan_, p, out_.rows());
        const CkptRecordHead head{p, rows.begin, rows.count};
        const Value* data = out_.row(rows.begin);
        const std::size_t bytes = rows.count * out_.cols() * sizeof(Value);
        const std::uint64_t sum = record_checksum(head, data, bytes);
        pwrite_all(fd_, end_, &head, sizeof(head), path_);
        pwrite_all(fd_, end_ + sizeof(head), data, bytes, path_);
        pwrite_all(fd_, end_ + sizeof(head) + bytes, &sum, sizeof(sum),
                   path_);
        PASTA_CHECK_MSG(fsutil::fsync_fd(fd_),
                        "fsync of checkpoint " << path_ << " failed");
        const std::uint64_t record = sizeof(head) + bytes + sizeof(sum);
        end_ += record;
        obs::add("stream.checkpoint_bytes", record);
    }

  private:
    std::uint64_t record_checksum(const CkptRecordHead& head,
                                  const Value* data, std::size_t bytes) const
    {
        return fnv1a64(data, bytes,
                       fnv1a64(&head, sizeof(head), header_.checksum));
    }

    std::string path_;
    const PartitionPlan& plan_;
    DenseMatrix& out_;
    CkptHeader header_;
    int fd_ = -1;
    std::uint64_t end_ = sizeof(CkptHeader);  ///< end of the valid prefix
};

}  // namespace

PartitionPlan
plan_partitions(const MappedCooTensor& x, Size lead_mode,
                std::uint64_t chunk_budget_bytes, Size max_partitions)
{
    PASTA_CHECK_MSG(lead_mode < x.order(),
                    "lead mode " << lead_mode << " out of range");
    PartitionPlan plan;
    plan.lead_mode = lead_mode;

    const unsigned dim_bits = radix::bits_for(x.dim(lead_mode));
    unsigned finest_bits = std::min(dim_bits, kMaxPartitionBits);
    while (finest_bits > 0 &&
           (Size{1} << finest_bits) > std::max<Size>(max_partitions, 1))
        --finest_bits;
    const Size finest = Size{1} << finest_bits;

    // One pass over the lead index column builds the finest histogram;
    // every coarser candidate P aggregates adjacent groups of it.
    std::vector<Size> hist(finest, 0);
    const unsigned finest_shift = dim_bits - finest_bits;
    const Index* lead = x.mode_indices(lead_mode);
    for (Size pos = 0; pos < x.nnz(); ++pos)
        ++hist[static_cast<std::uint64_t>(lead[pos]) >> finest_shift];

    for (unsigned bits = 0;; ++bits) {
        const Size parts = Size{1} << bits;
        const Size group = finest / parts;
        std::vector<Size> counts(parts, 0);
        Size max_count = 0;
        for (Size i = 0; i < parts; ++i) {
            for (Size g = 0; g < group; ++g)
                counts[i] += hist[i * group + g];
            max_count = std::max(max_count, counts[i]);
        }
        const std::uint64_t worst = chunk_cost(x.order(), max_count);
        if (chunk_budget_bytes == 0 || worst <= chunk_budget_bytes ||
            bits == finest_bits) {
            if (chunk_budget_bytes != 0 && worst > chunk_budget_bytes) {
                std::ostringstream oss;
                oss << "out-of-core plan infeasible for " << x.path()
                    << ": finest split (" << parts
                    << " partitions on mode " << lead_mode
                    << ") still needs " << worst
                    << " bytes per chunk against " << chunk_budget_bytes
                    << " available (PASTA_MEM_BYTES)";
                throw membudget::HostOomError(oss.str());
            }
            plan.partitions = parts;
            plan.shift = dim_bits - bits;
            plan.counts = std::move(counts);
            plan.max_count = max_count;
            return plan;
        }
    }
}

CooTensor
gather_partition(const MappedCooTensor& x, const PartitionPlan& plan,
                 Size p)
{
    PASTA_CHECK_MSG(p < plan.partitions, "partition " << p
                                                      << " out of range");
    const Size n = plan.counts[p];
    CooTensor chunk(x.dims());
    CooBulkFill fill = chunk.bulk_fill(n);
    const Size order = x.order();
    std::vector<const Index*> src(order);
    for (Size m = 0; m < order; ++m)
        src[m] = x.mode_indices(m);
    const Value* vals = x.values();
    const Index* lead = src[plan.lead_mode];
    Size out = 0;
    for (Size pos = 0; pos < x.nnz(); ++pos) {
        if ((static_cast<std::uint64_t>(lead[pos]) >> plan.shift) != p)
            continue;
        for (Size m = 0; m < order; ++m)
            fill.modes[m][out] = src[m][pos];
        fill.values[out] = vals[pos];
        ++out;
    }
    PASTA_ASSERT(out == n);
    return chunk;
}

StreamDecision
mttkrp_coo_stream(const MappedCooTensor& x, const FactorList& factors,
                  Size mode, DenseMatrix& out, const StreamOptions& opts)
{
    const Size rank = check_factors(x.dims(), factors);
    PASTA_CHECK_MSG(mode < x.order(), "mode " << mode << " out of range");
    PASTA_CHECK_MSG(out.rows() == x.dim(mode) && out.cols() == rank,
                    "output matrix shape mismatch");
    PASTA_CHECK_MSG(rank <= kMaxStackRank,
                    "rank " << rank << " exceeds kernel limit "
                            << kMaxStackRank);

    // Partitioning by the product mode makes output rows disjoint across
    // partitions: a chunk owns its rows outright, so a checkpoint record
    // need only carry the rows of the partition it finishes.
    PartitionPlan plan = plan_partitions(x, mode, default_chunk_budget(x),
                                         opts.max_partitions);

    StreamDecision d;
    d.streamed = true;
    d.partitions = plan.partitions;
    d.variant = stream_variant_name("mttkrp", plan.partitions);
    note_decision(d);

    out.fill(0);
    std::optional<CheckpointLog> log;
    Size start = 0;
    if (!opts.checkpoint_path.empty()) {
        log.emplace(opts.checkpoint_path, mode, plan, out);
        start = log->replay();
        d.resumed_from = start;
        if (start > 0) {
            PASTA_LOG_INFO << "streaming MTTKRP resuming at partition "
                           << start << "/" << plan.partitions << " from "
                           << opts.checkpoint_path;
        }
    }

    const Size order = x.order();
    for (Size p = start; p < plan.partitions; ++p) {
        const Size n = plan.counts[p];
        if (n != 0) {
            // Keys + permutation are the sweep's only scratch beyond the
            // chunk itself; reserving them keeps the governor ledger (and
            // the peak the tests assert on) honest.
            membudget::MemReservation scratch(std::uint64_t{16} * n,
                                              "stream.mttkrp.scratch");
            const CooTensor chunk = gather_partition(x, plan, p);
            std::vector<std::uint64_t> keys(n);
            const Index* rows = chunk.mode_indices(mode).data();
            for (Size q = 0; q < n; ++q)
                keys[q] = rows[q];
            std::vector<Size> perm;
            radix::sort_perm(keys, perm);

            // Row runs over the sorted keys.  The sort is stable, so
            // walking a run through `perm` visits that row's non-zeros in
            // stream order; accumulating serially within the run then
            // reproduces mttkrp_coo_seq's additions exactly, while
            // distinct runs (distinct output rows) go parallel freely.
            std::vector<Size> run_ptr;
            run_ptr.push_back(0);
            for (Size q = 1; q < n; ++q)
                if (keys[q] != keys[q - 1])
                    run_ptr.push_back(q);
            run_ptr.push_back(n);

            parallel_for(
                0, run_ptr.size() - 1, Schedule::kDynamic,
                [&](Size ri) {
                    Value acc[kMaxStackRank];
                    const Index row =
                        rows[perm[run_ptr[ri]]];
                    Value* out_row = out.row(row);
                    for (Size q = run_ptr[ri]; q < run_ptr[ri + 1]; ++q) {
                        const Size pos = perm[q];
                        const Value xval = chunk.value(pos);
                        for (Size r = 0; r < rank; ++r)
                            acc[r] = xval;
                        for (Size m = 0; m < order; ++m) {
                            if (m == mode)
                                continue;
                            const Value* frow =
                                factors[m]->row(chunk.index(m, pos));
                            for (Size r = 0; r < rank; ++r)
                                acc[r] *= frow[r];
                        }
                        for (Size r = 0; r < rank; ++r)
                            out_row[r] += acc[r];
                    }
                },
                1);
        }
        if (log)
            log->append(p);
        if (opts.progress)
            opts.progress(p + 1, plan.partitions);
    }
    return d;
}

StreamDecision
ttv_coo_stream(const MappedCooTensor& x, const DenseVector& v, Size mode,
               CooTensor& out, const StreamOptions& opts)
{
    PASTA_CHECK_MSG(x.order() >= 2, "TTV needs an order >= 2 tensor");
    PASTA_CHECK_MSG(mode < x.order(), "mode " << mode << " out of range");
    PASTA_CHECK_MSG(v.size() == x.dim(mode),
                    "vector length " << v.size() << " != mode extent "
                                     << x.dim(mode));

    // Lead with the first kept (non-contracted) mode: a fiber fixes all
    // kept coordinates, so no fiber ever spans two partitions, and the
    // kept lead is also the most significant field of the fibers-last
    // sort — chunk outputs concatenate in ttv_coo's exact order.
    const Size lead = mode == 0 ? 1 : 0;
    PartitionPlan plan = plan_partitions(x, lead, default_chunk_budget(x),
                                         opts.max_partitions);
    StreamDecision d;
    d.streamed = true;
    d.partitions = plan.partitions;
    d.variant = stream_variant_name("ttv", plan.partitions);
    note_decision(d);

    std::vector<Index> out_dims;
    for (Size m = 0; m < x.order(); ++m)
        if (m != mode)
            out_dims.push_back(x.dim(m));
    out = CooTensor(std::move(out_dims));

    for (Size p = 0; p < plan.partitions; ++p) {
        if (plan.counts[p] != 0) {
            const CooTensor chunk = gather_partition(x, plan, p);
            const CooTensor piece = ttv_coo(chunk, v, mode);
            for (Size m = 0; m < piece.order(); ++m) {
                const auto& src = piece.mode_indices(m);
                auto& dst = out.mode_indices(m);
                dst.insert(dst.end(), src.begin(), src.end());
            }
            out.values().insert(out.values().end(),
                                piece.values().begin(),
                                piece.values().end());
        }
        if (opts.progress)
            opts.progress(p + 1, plan.partitions);
    }
    return d;
}

StreamDecision
coalesce_streamed(const MappedCooTensor& x, const std::string& out_path,
                  const StreamOptions& opts)
{
    // Lead with mode 0: duplicates agree on every coordinate, so a
    // duplicate run can never straddle partitions, and mode 0 is the
    // most significant field of the lexicographic order — coalesced
    // chunks concatenate into the canonical sorted order directly.
    PartitionPlan plan = plan_partitions(x, 0, default_chunk_budget(x),
                                         opts.max_partitions);
    StreamDecision d;
    d.streamed = true;
    d.partitions = plan.partitions;
    d.variant = stream_variant_name("coalesce", plan.partitions);
    note_decision(d);

    std::vector<std::string> parts;
    for (Size p = 0; p < plan.partitions; ++p) {
        if (plan.counts[p] != 0) {
            CooTensor chunk = gather_partition(x, plan, p);
            chunk.canonicalize(DuplicatePolicy::kSum);
            std::string part = out_path + ".part" + std::to_string(p);
            write_binary_file(part, chunk);
            parts.push_back(std::move(part));
        }
        if (opts.progress)
            opts.progress(p + 1, plan.partitions);
    }
    concat_binary_files(out_path, x.dims(), parts);
    for (const std::string& part : parts)
        std::remove(part.c_str());
    return d;
}

StreamDecision
mttkrp_coo_budgeted(const MappedCooTensor& x, const FactorList& factors,
                    Size mode, DenseMatrix& out, const StreamOptions& opts)
{
    const std::uint64_t full = membudget::coo_bytes(x.order(), x.nnz());
    if (!membudget::degraded() && membudget::would_fit(full)) {
        try {
            const CooTensor t = x.to_coo();
            StreamDecision d;
            d.variant = "mttkrp_inmem";
            note_decision(d);
            mttkrp_coo(t, factors, mode, out);
            return d;
        } catch (const membudget::HostOomError& e) {
            PASTA_LOG_INFO << "in-memory MTTKRP rejected by governor ("
                           << e.what() << "); falling back to streaming";
        }
    }
    return mttkrp_coo_stream(x, factors, mode, out, opts);
}

StreamDecision
ttv_coo_budgeted(const MappedCooTensor& x, const DenseVector& v, Size mode,
                 CooTensor& out, const StreamOptions& opts)
{
    const std::uint64_t full = membudget::coo_bytes(x.order(), x.nnz());
    if (!membudget::degraded() && membudget::would_fit(full)) {
        try {
            const CooTensor t = x.to_coo();
            StreamDecision d;
            d.variant = "ttv_inmem";
            note_decision(d);
            out = ttv_coo(t, v, mode);
            return d;
        } catch (const membudget::HostOomError& e) {
            PASTA_LOG_INFO << "in-memory TTV rejected by governor ("
                           << e.what() << "); falling back to streaming";
        }
    }
    return ttv_coo_stream(x, v, mode, out, opts);
}

StreamDecision
coalesce_budgeted(const MappedCooTensor& x, const std::string& out_path,
                  const StreamOptions& opts)
{
    const std::uint64_t full = membudget::coo_bytes(x.order(), x.nnz());
    if (!membudget::degraded() && membudget::would_fit(full)) {
        try {
            CooTensor t = x.to_coo();
            t.canonicalize(DuplicatePolicy::kSum);
            write_binary_file(out_path, t);
            StreamDecision d;
            d.variant = "coalesce_inmem";
            note_decision(d);
            return d;
        } catch (const membudget::HostOomError& e) {
            PASTA_LOG_INFO << "in-memory coalesce rejected by governor ("
                           << e.what() << "); falling back to streaming";
        }
    }
    return coalesce_streamed(x, out_path, opts);
}

}  // namespace pasta::stream
