#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/query_engine.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

/// The engine's answer to one stream index, as the client saw it.
struct Answer {
  double reliability = 0.0;
  /// First ranked target of a sweep-kind answer (kInvalidNode when empty).
  double top_reliability = 0.0;
  relcomp::NodeId top_node = relcomp::kInvalidNode;
  uint32_t num_samples = 0;
  uint32_t num_targets = 0;
  /// The query was sent and answered OK (failed calls leave no answer).
  bool answered = false;
  bool cache_hit = false;
  bool coalesced = false;
};

/// \brief The engine's answers to two ranges of stream indices: the first
/// ones of the stream (the oracle's sample) and the first ones of the timed
/// phase (the replay's). Each index is sent by exactly one client, so
/// clients write disjoint slots without locking.
class AnswerLog {
 public:
  /// Covers mixed-zipf's warm-up, whose cold scalar answers hold most of
  /// the oracle's sample.
  static constexpr uint64_t kHead = 100000;
  static constexpr uint64_t kTail = 50000;

  AnswerLog() : slots_(kHead + kTail) {}

  /// Starts the second range at `index` (call between phases).
  void StartTail(uint64_t index) { tail_begin_ = index; }

  /// The slot of `index`, or nullptr when neither range holds it.
  Answer* Slot(uint64_t index) {
    const size_t at = Position(index);
    return at == kNowhere ? nullptr : &slots_[at];
  }
  const Answer* Find(uint64_t index) const {
    const size_t at = Position(index);
    return at == kNowhere ? nullptr : &slots_[at];
  }

 private:
  static constexpr size_t kNowhere = ~size_t{0};

  size_t Position(uint64_t index) const {
    if (index < kHead) return index;
    if (index >= tail_begin_ && index - tail_begin_ < kTail) {
      return kHead + (index - tail_begin_);
    }
    return kNowhere;
  }

  /// kHead slots for the stream's first indices, then kTail for the tail.
  std::vector<Answer> slots_;
  uint64_t tail_begin_ = ~uint64_t{0};
};

struct PhaseOptions {
  size_t clients = 1;
  /// Time the phase runs; 0 runs until `max_calls` calls were sent.
  double seconds = 0.0;
  /// Stream queries the phase may send (bounds the untimed warm-up).
  uint64_t max_calls = ~uint64_t{0};
  /// A timed phase runs past `seconds` (up to 3x) until this many calls
  /// completed, so the reported p99 has enough samples beyond it.
  uint64_t min_calls = 0;
  /// > 0: read the peak resident memory when this many calls of the phase
  /// completed (PhaseResult::rss_peak_mb).
  uint64_t rss_at_calls = 0;
  /// > 0: split a timed phase into slices and keep each slice's figures
  /// (PhaseResult::slices). A slice closes once it has lasted slice_seconds
  /// and holds slice_min_calls completed calls; a call counts in the slice
  /// in which it completed.
  double slice_seconds = 0.0;
  uint64_t slice_min_calls = 0;
  /// > 0: alternate untraced and traced windows (2 * trace_windows in all,
  /// in ABBA order, so an even count balances a linear trend); traced calls
  /// record an engine.run_batch span.
  int trace_windows = 0;
};

/// The calls that completed in one time slice of a phase.
struct Slice {
  double seconds = 0.0;
  uint64_t ok_calls = 0;
  /// Wall time of each call completed in the slice.
  std::vector<uint32_t> latency_ns;
};

struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_seconds = 0.0;
  bool exhausted = false;  ///< the stream ran dry before the time was up
  /// Peak resident memory (MB) when rss_at_calls calls completed, or when
  /// the phase ended if it completed fewer.
  double rss_peak_mb = 0.0;
  /// Per-call wall time, every call of the phase.
  std::vector<uint32_t> latency_ns;
  /// Per-call wall time minus EngineResult::seconds (queueing, cache probe,
  /// hand-off).
  std::vector<uint32_t> overhead_ns;
  /// The phase's slices, in order (slice_seconds > 0). A last slice cut
  /// short by the end of the phase is merged into the one before it.
  std::vector<Slice> slices;
  /// Sum of EngineResult::seconds over calls that computed (neither cache
  /// hit nor coalesced): worker busy time as the engine reports it.
  double busy_seconds = 0.0;
  /// Trace windows only.
  uint64_t untraced_calls = 0;
  uint64_t traced_calls = 0;
  double untraced_seconds = 0.0;
  double traced_seconds = 0.0;
  std::vector<std::unique_ptr<SpanLog>> logs;
};

/// Peak resident memory of this process so far, in MB.
double PeakRssMb();

/// Runs one closed-loop phase: `options.clients` threads each send one
/// single-query RunBatch at a time, taking stream indices from `cursor`, and
/// wait for its reply. `tracing` is raised during traced windows (callers
/// may watch it to instrument their own side work).
PhaseResult RunPhase(relcomp::QueryEngine& engine, const QueryStream& stream,
                     std::atomic<uint64_t>& cursor,
                     const PhaseOptions& options, AnswerLog& answers,
                     std::atomic<bool>& tracing);

}  // namespace perfbench
