/// \file
/// Process-wide memory governor: bounded-memory execution for tensors
/// bigger than RAM.
///
/// Every format and kernel in the suite historically assumed the whole
/// tensor resident, so a FROSTT-scale input died with an uncatchable
/// bad_alloc.  The governor turns that cliff into a policy decision: a
/// budget is armed via $PASTA_MEM_BYTES, large working sets *reserve*
/// against it before allocating, and a reservation that would exceed the
/// budget raises HostOomError — a catchable, classifiable sibling of the
/// simulated GPU's DeviceOomError — instead of letting the allocator
/// abort the campaign.  Callers with a streaming alternative (the
/// src/core/stream out-of-core kernels) treat the rejection as a routing
/// signal; the trial harness treats it as a *degradable* failure class
/// and retries once in degraded mode (membudget::degraded() == true), in
/// which budget-aware paths must pick streaming/smaller chunks.
///
/// Accounting model.  The governor meters *scoped working sets*, not
/// every byte the allocator hands out: the reservation API is explicit
/// (reserve/release or the RAII MemReservation), and the instrumented
/// choke points are the places campaigns actually die — tensor loads and
/// materialization (io/binary_io), conversion staging (core/convert),
/// sort scratch (core/sort_radix), merge scratch (core/merge), CSF pool
/// builds, dense factor allocation, privatized MTTKRP buffers, and the
/// out-of-core chunk buffers (core/stream).  Long-lived tensors are
/// metered while being materialized; lightweight `check()` probes guard
/// the remaining bulk resizes.  The governor's own reserved()/peak()
/// are the record: the bench harness reads peak() for its per-trial
/// mem_peak column and the heartbeat exporter copies both into the
/// "mem.reserved"/"mem.peak" gauges each tick.  Under PASTA_TRACE the
/// "mem.granted" model counter also totals the bytes granted.
///
/// Thread safety: all mutators are atomic; reserve/release may be called
/// from any thread.  The fault point "mem.reserve" (PASTA_FAULT) fires
/// inside reserve() so chaos tests can exercise every consumer.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace pasta::membudget {

/// Thrown when a reservation would exceed the armed budget.  Derives
/// from PastaError so existing guards catch it; the trial harness
/// classifies it separately ("oom", degradable) and retries once in
/// degraded mode before journaling a terminal failure.
class HostOomError : public PastaError {
  public:
    explicit HostOomError(const std::string& what) : PastaError(what) {}
};

/// Process-wide tracking allocator / reservation ledger.  Disabled
/// (budget 0 = unlimited) until configured; all operations still track
/// reserved/peak so reports work without a budget.
class MemGovernor {
  public:
    static MemGovernor& instance();

    /// Arms a budget in bytes (0 disarms: reservations always succeed).
    /// Resets the degraded flag; reserved/peak are left untouched so a
    /// reconfiguration mid-run cannot corrupt the ledger.
    void configure(std::uint64_t budget_bytes);

    /// Arms from $PASTA_MEM_BYTES (plain bytes, or with a K/M/G binary
    /// suffix, e.g. "512M").  No-op when unset; malformed values throw
    /// PastaError.
    void configure_from_env();

    /// The armed budget in bytes; 0 means unlimited.
    std::uint64_t budget() const
    {
        return budget_.load(std::memory_order_relaxed);
    }

    /// True when a finite budget is armed.
    bool enabled() const { return budget() != 0; }

    /// Claims `bytes` for `what`; throws HostOomError naming the
    /// reservation when the budget would be exceeded.  Fires the
    /// "mem.reserve" fault point first so PASTA_FAULT can chaos-test
    /// every consumer.
    void reserve(std::uint64_t bytes, const char* what);

    /// Like reserve() but returns false instead of throwing (routing
    /// probes: "does the in-memory path fit?").  Does not fire the
    /// fault point — probes are decisions, not commitments.
    bool try_reserve(std::uint64_t bytes, const char* what);

    /// Returns `bytes` to the ledger (never throws; clamps at zero so a
    /// double release cannot underflow into a bogus huge reservation).
    void release(std::uint64_t bytes);

    /// Probes whether `bytes` more would fit right now, without
    /// reserving.  Always true when no budget is armed.
    bool would_fit(std::uint64_t bytes) const;

    /// Checks that `bytes` more would fit and records the prospective
    /// peak, without holding a reservation: the guard used at bulk
    /// resize choke points where the allocation's lifetime is owned by
    /// a container.  Throws HostOomError when it would not fit.
    void check(std::uint64_t bytes, const char* what) const;

    /// Currently reserved bytes.
    std::uint64_t reserved() const
    {
        return reserved_.load(std::memory_order_relaxed);
    }

    /// High-water mark of reserved() (plus check() probes) since the
    /// last reset_peak().
    std::uint64_t peak() const
    {
        return peak_.load(std::memory_order_relaxed);
    }

    /// Restarts peak tracking from the current reserved level (the
    /// bench harness calls this per trial for the mem_peak column).
    void reset_peak();

    /// Degraded mode: armed by the trial harness after a HostOomError
    /// so the retry's budget-aware paths choose streaming/smaller
    /// chunks instead of re-attempting the in-memory route.
    void set_degraded(bool on)
    {
        degraded_.store(on, std::memory_order_relaxed);
    }
    bool degraded() const
    {
        return degraded_.load(std::memory_order_relaxed);
    }

  private:
    MemGovernor() = default;
    void note_peak(std::uint64_t level) const;

    std::atomic<std::uint64_t> budget_{0};
    std::atomic<std::uint64_t> reserved_{0};
    mutable std::atomic<std::uint64_t> peak_{0};
    std::atomic<bool> degraded_{false};
};

/// RAII reservation: claims in the constructor, returns in the
/// destructor.  Movable, not copyable; an empty (default) reservation
/// releases nothing.
class MemReservation {
  public:
    MemReservation() = default;

    /// Reserves `bytes` (throws HostOomError over budget).
    MemReservation(std::uint64_t bytes, const char* what)
        : bytes_(bytes)
    {
        MemGovernor::instance().reserve(bytes, what);
    }

    MemReservation(const MemReservation&) = delete;
    MemReservation& operator=(const MemReservation&) = delete;

    MemReservation(MemReservation&& other) noexcept : bytes_(other.bytes_)
    {
        other.bytes_ = 0;
    }
    MemReservation& operator=(MemReservation&& other) noexcept
    {
        if (this != &other) {
            release();
            bytes_ = other.bytes_;
            other.bytes_ = 0;
        }
        return *this;
    }

    ~MemReservation() { release(); }

    /// Bytes currently held (0 after release/move-from).
    std::uint64_t bytes() const { return bytes_; }

    /// Returns the bytes early.
    void release()
    {
        if (bytes_ != 0) {
            MemGovernor::instance().release(bytes_);
            bytes_ = 0;
        }
    }

  private:
    std::uint64_t bytes_ = 0;
};

/// Footprint of a COO tensor's arrays: nnz x (order index columns + one
/// value column), 4 bytes each (paper Table I conventions).
inline std::uint64_t
coo_bytes(std::uint64_t order, std::uint64_t nnz)
{
    return nnz * (order + 1) * 4;
}

/// Convenience forwarders to the process-wide governor.
inline void
reserve(std::uint64_t bytes, const char* what)
{
    MemGovernor::instance().reserve(bytes, what);
}

inline void
release(std::uint64_t bytes)
{
    MemGovernor::instance().release(bytes);
}

inline void
check(std::uint64_t bytes, const char* what)
{
    MemGovernor::instance().check(bytes, what);
}

inline bool
would_fit(std::uint64_t bytes)
{
    return MemGovernor::instance().would_fit(bytes);
}

inline bool
degraded()
{
    return MemGovernor::instance().degraded();
}

}  // namespace pasta::membudget
