/// \file
/// Zero-overhead parallel runtime over OpenMP.
///
/// The paper's CPU kernels are OpenMP-parallel (§V-A2).  This layer is a
/// set of header-only templates: each entry point takes its callable by
/// value as a template parameter, so the body inlines into the OpenMP
/// loop and the hot path compiles down to a plain
/// `#pragma omp parallel for` — no type-erased dispatch per index.  Each
/// kernel names its schedule at its own parallel_for call (callers of a
/// kernel cannot change it), and tests can pin the thread count for
/// deterministic runs.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstddef>

#include "common/types.hpp"

namespace pasta {

/// OpenMP loop schedule of one parallel_for call: static for uniform
/// work, dynamic for skewed work (fibers, blocks, tree roots).
enum class Schedule { kStatic, kDynamic };

/// Returns the number of threads parallel_for will use.  Three guards
/// stack on top of the OpenMP default: the process-wide override
/// (set_num_threads), the calling thread's budget (ThreadBudgetScope),
/// and a nested-region check — a parallel_for issued from *inside*
/// another parallel_for (or any OpenMP parallel region) returns 1 and
/// degrades to serial.  Without the last two, a serving worker pool
/// whose jobs each call parallel_for would oversubscribe the machine
/// with up to threads² workers.
int num_threads();

/// Overrides the worker count (0 restores the OpenMP default).
void set_num_threads(int n);

/// The calling thread's worker budget: a cap on num_threads() that
/// binds only on this thread (0 = uncapped).  A serving worker arms it
/// once per job so intra-kernel parallel_for calls share the machine
/// with the other concurrently-running jobs instead of each claiming a
/// full OpenMP team.
int thread_budget();

/// Sets the calling thread's budget (0 removes it).  Values are clamped
/// at 1 from below by num_threads(), never above the OpenMP default.
void set_thread_budget(int n);

/// RAII per-thread budget: arms `n` for the scope, restores the
/// previous budget on exit.  The intended spelling at job boundaries.
class ThreadBudgetScope {
  public:
    explicit ThreadBudgetScope(int n) : prev_(thread_budget())
    {
        set_thread_budget(n);
    }
    ThreadBudgetScope(const ThreadBudgetScope&) = delete;
    ThreadBudgetScope& operator=(const ThreadBudgetScope&) = delete;
    ~ThreadBudgetScope() { set_thread_budget(prev_); }

  private:
    int prev_;
};

/// Id of the calling worker inside a parallel region, in
/// [0, num_threads()); 0 outside any region.  Kernels that keep
/// per-thread private buffers (privatized MTTKRP, CSF scratch) index
/// them with this — worker identity, unlike chunk identity, is stable
/// under every schedule.
inline int
worker_id()
{
    return omp_get_thread_num();
}

#if defined(__SANITIZE_THREAD__)
extern "C" void __tsan_acquire(void* addr);
extern "C" void __tsan_release(void* addr);
#endif

/// ThreadSanitizer hand-off annotations for OpenMP regions.  libgomp is
/// not built with TSan, so the fork and join of a region are invisible
/// to it.  A region announces them on two tokens: the caller calls
/// tsan_release(&fork) before the region and each task
/// tsan_acquire(&fork) first; each task calls tsan_release(&join) last
/// and the caller tsan_acquire(&join) after the region.  Races between
/// the tasks themselves are still reported.  No-ops in other builds.
inline void
tsan_release([[maybe_unused]] void* token)
{
#if defined(__SANITIZE_THREAD__)
    __tsan_release(token);
#endif
}

inline void
tsan_acquire([[maybe_unused]] void* token)
{
#if defined(__SANITIZE_THREAD__)
    __tsan_acquire(token);
#endif
}

/// Runs `body(i)` for i in [begin, end) in parallel with the requested
/// schedule.  `chunk` of 0 uses the schedule's default chunking.
template <typename Body>
void
parallel_for(Size begin, Size end, Schedule schedule, Body body,
             Size chunk = 0)
{
    if (begin >= end)
        return;
    const auto b = static_cast<long long>(begin);
    const auto e = static_cast<long long>(end);
    const int nt = num_threads();
    const auto c = static_cast<long long>(chunk);
    char fork = 0;  // hand-off tokens for ThreadSanitizer only
    char join = 0;
    const auto run = [&](long long i) {
        tsan_acquire(&fork);
        body(static_cast<Size>(i));
        tsan_release(&join);
    };
    tsan_release(&fork);
    switch (schedule) {
      case Schedule::kStatic:
#pragma omp parallel for num_threads(nt) schedule(static)
        for (long long i = b; i < e; ++i)
            run(i);
        break;
      case Schedule::kDynamic:
        if (c > 0) {
#pragma omp parallel for num_threads(nt) schedule(dynamic, c)
            for (long long i = b; i < e; ++i)
                run(i);
        } else {
#pragma omp parallel for num_threads(nt) schedule(dynamic)
            for (long long i = b; i < e; ++i)
                run(i);
        }
        break;
    }
    tsan_acquire(&join);
}

/// Runs `body(first, last)` over contiguous index ranges, one call per
/// chunk, in parallel.  Lower overhead than per-index dispatch; used by the
/// streaming kernels (TEW, TS) where the body is a few flops.
template <typename Body>
void
parallel_for_ranges(Size begin, Size end, Body body)
{
    if (begin >= end)
        return;
    const Size total = end - begin;
    const int nt = num_threads();
    const Size chunks = std::min<Size>(static_cast<Size>(nt), total);
    const Size per = (total + chunks - 1) / chunks;
    char fork = 0;  // hand-off tokens for ThreadSanitizer only
    char join = 0;
    tsan_release(&fork);
#pragma omp parallel for num_threads(nt) schedule(static)
    for (long long c = 0; c < static_cast<long long>(chunks); ++c) {
        tsan_acquire(&fork);
        const Size first = begin + static_cast<Size>(c) * per;
        const Size last = std::min(end, first + per);
        if (first < last)
            body(first, last);
        tsan_release(&join);
    }
    tsan_acquire(&join);
}

/// Like parallel_for_ranges, but the body also receives the id of the
/// worker executing the chunk: `body(worker, first, last)`.  The worker id
/// — not the chunk id — is the safe key for private buffers: should the
/// runtime deliver fewer threads than requested, one worker may execute
/// several chunks, and chunk-keyed buffers would alias.
template <typename Body>
void
parallel_for_worker_ranges(Size begin, Size end, Body body)
{
    if (begin >= end)
        return;
    const Size total = end - begin;
    const int nt = num_threads();
    const Size chunks = std::min<Size>(static_cast<Size>(nt), total);
    const Size per = (total + chunks - 1) / chunks;
    char fork = 0;  // hand-off tokens for ThreadSanitizer only
    char join = 0;
    tsan_release(&fork);
#pragma omp parallel for num_threads(nt) schedule(static)
    for (long long c = 0; c < static_cast<long long>(chunks); ++c) {
        tsan_acquire(&fork);
        const Size first = begin + static_cast<Size>(c) * per;
        const Size last = std::min(end, first + per);
        if (first < last)
            body(worker_id(), first, last);
        tsan_release(&join);
    }
    tsan_acquire(&join);
}

/// Atomically adds `delta` to `*target` (the paper's "omp atomic" /
/// "atomicAdd" used to protect the MTTKRP output matrix).
inline void
atomic_add(Value* target, Value delta)
{
#pragma omp atomic
    *target += delta;
}

/// Parallel sum reduction of `term(i)` over [begin, end).
template <typename Term>
double
parallel_sum(Size begin, Size end, Term term)
{
    double total = 0.0;
    const auto b = static_cast<long long>(begin);
    const auto e = static_cast<long long>(end);
    const int nt = num_threads();
#pragma omp parallel for num_threads(nt) schedule(static) reduction(+ : total)
    for (long long i = b; i < e; ++i)
        total += term(static_cast<Size>(i));
    return total;
}

}  // namespace pasta
