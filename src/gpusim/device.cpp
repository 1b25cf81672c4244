#include "gpusim/device.hpp"

#include <sstream>

#include "common/config.hpp"
#include "common/parallel.hpp"
#include "obs/counters.hpp"
#include "validate/validate.hpp"

namespace pasta::gpusim {

void
atomic_add(Value* address, Value value)
{
    ::pasta::atomic_add(address, value);
}

namespace detail {

void
note_launch(Size blocks, Size threads_per_block)
{
    if (!obs::counters_enabled())
        return;
    obs::counter("gpusim.launches").add(1);
    obs::counter("gpusim.sim_blocks").add(blocks);
    obs::counter("gpusim.sim_threads").add(blocks * threads_per_block);
}

}  // namespace detail

DeviceMemory::DeviceMemory()
    : capacity_(config::bytes("PASTA_GPUSIM_MEM_BYTES"))
{
}

DeviceMemory&
DeviceMemory::instance()
{
    static DeviceMemory mem;
    return mem;
}

void
DeviceMemory::allocate(std::uint64_t bytes, const char* what)
{
    for (;;) {
        std::uint64_t cur = used_.load();
        const std::uint64_t next = cur + bytes;
        if (capacity_ != 0 && (next > capacity_ || next < cur)) {
            std::ostringstream oss;
            oss << "simulated device out of memory: " << bytes
                << " B for " << what << " on top of " << cur
                << " B in use exceeds capacity " << capacity_
                << " B (PASTA_GPUSIM_MEM_BYTES)";
            throw DeviceOomError(oss.str());
        }
        if (used_.compare_exchange_weak(cur, next))
            break;
    }
    // Peak is advisory; a stale read only under-reports transiently.
    std::uint64_t peak = peak_.load();
    const std::uint64_t used_now = used_.load();
    while (used_now > peak && !peak_.compare_exchange_weak(peak, used_now)) {
    }
    obs::record_max("gpusim.mem_peak_bytes", used_now);
}

void
DeviceMemory::release(std::uint64_t bytes)
{
    used_.fetch_sub(bytes);
}

DeviceBuffer::DeviceBuffer(std::uint64_t bytes, const char* what)
    : bytes_(bytes)
{
    DeviceMemory::instance().allocate(bytes_, what);
}

DeviceBuffer::DeviceBuffer(DeviceBuffer&& other) noexcept
    : bytes_(other.bytes_)
{
    other.bytes_ = 0;
}

DeviceBuffer&
DeviceBuffer::operator=(DeviceBuffer&& other) noexcept
{
    if (this != &other) {
        if (bytes_ != 0)
            DeviceMemory::instance().release(bytes_);
        bytes_ = other.bytes_;
        other.bytes_ = 0;
    }
    return *this;
}

DeviceBuffer::~DeviceBuffer()
{
    if (bytes_ != 0)
        DeviceMemory::instance().release(bytes_);
}

std::atomic<bool> AccessMonitor::armed_{false};
std::atomic<Size> AccessMonitor::violations_{0};
std::atomic<Size> AccessMonitor::first_index_{0};
std::atomic<Size> AccessMonitor::first_limit_{0};

void
AccessMonitor::arm(bool enable)
{
    violations_.store(0, std::memory_order_relaxed);
    first_index_.store(0, std::memory_order_relaxed);
    first_limit_.store(0, std::memory_order_relaxed);
    armed_.store(enable, std::memory_order_relaxed);
}

void
AccessMonitor::record(Size index, Size limit)
{
    if (violations_.fetch_add(1, std::memory_order_relaxed) == 0) {
        first_index_.store(index, std::memory_order_relaxed);
        first_limit_.store(limit, std::memory_order_relaxed);
    }
}

void
AccessMonitor::throw_if_access_violations(const char* kernel)
{
    const Size count = violations_.load(std::memory_order_relaxed);
    armed_.store(false, std::memory_order_relaxed);
    if (count == 0)
        return;
    std::ostringstream oss;
    oss << kernel << ": " << count
        << " out-of-bounds simulated global-memory access(es); first was "
        << "index " << first_index_.load(std::memory_order_relaxed)
        << " >= extent " << first_limit_.load(std::memory_order_relaxed);
    throw validate::ValidationError(oss.str());
}

}  // namespace pasta::gpusim
