#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace relcomp {

/// \brief Logical memory accounting for the paper's "online memory usage"
/// metric (Section 3.6 / Figure 12).
///
/// Estimators report the sizes of their dominant data structures (node bit
/// vectors, per-node geometric heaps, recursion frames, simplified-graph
/// copies, index structures loaded for a query). This reproduces the paper's
/// memory *ordering* (MC < LP+ < ProbTree < BFS Sharing < RHH ~= RSS)
/// deterministically, independent of allocator behaviour. A process-level RSS
/// probe is also provided for sanity checks.
/// Counters are std::atomic (relaxed) so per-thread estimator replicas can
/// report into a shared tracker without data races; single-threaded behaviour
/// is unchanged.
class MemoryTracker {
 public:
  /// Records an allocation of `bytes` logical bytes.
  void Add(size_t bytes) {
    const size_t now =
        current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    size_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }

  /// Records a release of `bytes` logical bytes (clamped at zero).
  void Release(size_t bytes) {
    size_t current = current_.load(std::memory_order_relaxed);
    size_t next;
    do {
      next = bytes > current ? 0 : current - bytes;
    } while (!current_.compare_exchange_weak(current, next,
                                             std::memory_order_relaxed));
  }

  /// Currently live logical bytes.
  size_t current_bytes() const {
    return current_.load(std::memory_order_relaxed);
  }
  /// High-water mark since construction / last Reset().
  size_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

  /// Clears both counters.
  void Reset() {
    current_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }
  /// Clears the peak down to the current level.
  void ResetPeak() {
    peak_.store(current_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  }

 private:
  std::atomic<size_t> current_{0};
  std::atomic<size_t> peak_{0};
};

/// \brief RAII helper: Add(bytes) on construction, Release(bytes) on scope
/// exit. `bytes` may be grown while in scope via Grow().
class ScopedAllocation {
 public:
  ScopedAllocation(MemoryTracker* tracker, size_t bytes)
      : tracker_(tracker), bytes_(bytes) {
    if (tracker_ != nullptr) tracker_->Add(bytes_);
  }
  ~ScopedAllocation() {
    if (tracker_ != nullptr) tracker_->Release(bytes_);
  }
  ScopedAllocation(const ScopedAllocation&) = delete;
  ScopedAllocation& operator=(const ScopedAllocation&) = delete;

  /// Registers `extra` additional bytes owned by this scope.
  void Grow(size_t extra) {
    bytes_ += extra;
    if (tracker_ != nullptr) tracker_->Add(extra);
  }

  size_t bytes() const { return bytes_; }

 private:
  MemoryTracker* tracker_;
  size_t bytes_;
};

/// \brief Deduplicated resident-index accounting for a set of estimator
/// replicas.
///
/// Summing Estimator::IndexMemoryBytes() over replicas double-counts an index
/// they share: N replicas over one immutable index hold one copy, not N. This
/// report splits the footprint so each distinct shared index is counted once
/// (keyed by Estimator::SharedIndexIdentity) and replica-private index bytes
/// are summed per replica. Computed by ReportIndexMemory (estimator_factory).
struct IndexMemoryReport {
  /// Bytes of distinct shared immutable indexes, each counted once.
  size_t shared_bytes = 0;
  /// Sum of replica-private (unshared) index bytes across all replicas.
  size_t replica_bytes = 0;
  /// Number of distinct shared indexes observed.
  size_t shared_indexes = 0;
  /// True resident index footprint of the replica set.
  size_t total_bytes() const { return shared_bytes + replica_bytes; }
};

/// \brief Resident-set size of the current process in bytes (Linux
/// /proc/self/statm), or 0 if unavailable.
size_t CurrentRssBytes();

}  // namespace relcomp
