#include "io/registry.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "common/error.hpp"
#include "common/log.hpp"
#include "harness/fault.hpp"
#include "io/binary_io.hpp"
#include "validate/validate.hpp"

namespace pasta {

namespace {

/// Per-cache-path locks, shared across all registry instances in the
/// process: concurrent load()s of the same dataset synthesize (or
/// regenerate after corruption) exactly once; the rest wait and read
/// the published file.  Entries are never reclaimed — the table is
/// bounded by the dataset roster, a few dozen paths.
std::mutex&
path_mutex(const std::string& path)
{
    static std::mutex table_mutex;
    static std::unordered_map<std::string, std::unique_ptr<std::mutex>>
        table;
    std::lock_guard<std::mutex> lock(table_mutex);
    auto& slot = table[path];
    if (!slot)
        slot = std::make_unique<std::mutex>();
    return *slot;
}

std::uint64_t
unique_suffix()
{
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Generators promise sorted duplicate-free output, and cache files are
/// generator output; check it at this boundary.  (PSTB itself promises
/// no order, so read_binary_file does not.)
void
require_generator_order(const CooTensor& tensor)
{
    if (validate::convert_checks_enabled())
        validate::validate(tensor).require();
}

}  // namespace

TensorRegistry::TensorRegistry(std::string cache_dir, double scale)
    : cache_dir_(std::move(cache_dir)), scale_(scale)
{
    PASTA_CHECK_MSG(scale_ > 0 && scale_ <= 1.0,
                    "scale must be in (0, 1]");
}

std::string
TensorRegistry::cache_path(const DatasetSpec& spec) const
{
    if (cache_dir_.empty())
        return {};
    std::ostringstream oss;
    oss << cache_dir_ << "/" << spec.id << "_" << spec.name << "_s"
        << scale_ << ".pstb";
    return oss.str();
}

CooTensor
TensorRegistry::load(const std::string& id_or_name)
{
    const DatasetSpec& spec = find_dataset(id_or_name);
    const std::string path = cache_path(spec);
    CooTensor tensor;
    if (path.empty()) {
        tensor = synthesize_dataset(spec, scale_);
    } else {
        // Single flight per path: with the lock held, the read below sees
        // either a fully published file or none — regeneration after a
        // corrupt read cannot race another reader of the same dataset
        // into double synthesis or a torn read of a half-written file.
        std::lock_guard<std::mutex> lock(path_mutex(path));
        if (std::filesystem::exists(path)) {
            try {
                harness::fault_point("cache.load");
                tensor = read_binary_file(path);
                require_generator_order(tensor);
                return tensor;
            } catch (const PastaError& e) {
                // Corrupt, truncated, or stale-version entry: drop it so
                // the regenerated tensor replaces it instead of failing
                // again on the next run, then fall through to synthesis.
                PASTA_LOG_WARN << "stale cache " << path << " ("
                               << e.what()
                               << "); deleting and regenerating";
                std::error_code ec;
                std::filesystem::remove(path, ec);
                if (ec) {
                    PASTA_LOG_WARN << "cannot delete stale cache " << path
                                   << ": " << ec.message();
                }
            }
        }
        tensor = synthesize_dataset(spec, scale_);
        store(path, tensor);
    }
    require_generator_order(tensor);
    return tensor;
}

void
TensorRegistry::store(const std::string& path, const CooTensor& tensor)
{
    std::error_code ec;
    std::filesystem::create_directories(cache_dir_, ec);
    if (ec)
        return;
    // Publish atomically: write to a unique temp file in the same
    // directory, then rename over the final path.  A concurrent reader
    // (even in another process, which the path_mutex cannot cover) sees
    // the old file or the new one — never a partial write.
    std::ostringstream tmp;
    tmp << path << ".tmp." << ::getpid() << "." << unique_suffix();
    try {
        write_binary_file(tmp.str(), tensor);
        std::filesystem::rename(tmp.str(), path);
    } catch (const PastaError& e) {
        PASTA_LOG_WARN << "cannot cache " << path << ": " << e.what();
        std::filesystem::remove(tmp.str(), ec);
    } catch (const std::filesystem::filesystem_error& e) {
        PASTA_LOG_WARN << "cannot cache " << path << ": " << e.what();
        std::filesystem::remove(tmp.str(), ec);
    }
}

}  // namespace pasta
