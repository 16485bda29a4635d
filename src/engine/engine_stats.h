#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/memory_tracker.h"
#include "engine/result_cache.h"
#include "engine/sweep_cache.h"
#include "eval/table.h"
#include "obs/metrics.h"
#include "reliability/workload.h"

namespace relcomp {

/// \brief Point-in-time view of engine performance: throughput, latency
/// quantiles, cache effectiveness, coalescing, per-workload mix, and index
/// memory.
struct EngineStatsSnapshot {
  uint64_t queries = 0;
  /// Per-workload query counts, indexed by WorkloadKind (st, top-k,
  /// reliable-set, distance) — every query is counted once however it was
  /// resolved (executed, cached, coalesced, or failed).
  uint64_t workload_queries[kNumWorkloadKinds] = {};

  uint64_t queries_of(WorkloadKind kind) const {
    return workload_queries[static_cast<size_t>(kind)];
  }
  /// Queries that actually invoked an estimator (not served from cache or a
  /// coalesced in-flight twin, not failed before estimation).
  uint64_t executed = 0;
  /// Queries that piggybacked on another worker's in-flight computation of
  /// the same key (single-flight coalescing).
  uint64_t coalesced = 0;
  /// Queries that finished with a non-OK per-query status.
  uint64_t failures = 0;
  /// \name Fault tolerance (zeros when deadlines / shedding are off)
  /// @{
  /// Queries refused at admission (load shedding): returned kUnavailable
  /// *before* entering the engine, so they do NOT count in `queries` and do
  /// not disturb the executed+coalesced+failures+hits partition.
  uint64_t shed = 0;
  /// Queries that missed their deadline or were cancelled (these DO count:
  /// they are a subset of `failures`).
  uint64_t deadline_exceeded = 0;
  /// Queries answered from a TTL-expired result-cache entry inside the
  /// stale window (a subset of the cache hits).
  uint64_t stale_served = 0;
  /// Faults injected by the active FaultInjector plan (all sites summed;
  /// zero in production where the injector is disabled).
  uint64_t faults_injected = 0;
  /// @}
  /// \name Sweep sharing (top-k / reliable-set over one per-source sweep)
  /// For *successful* sweep-kind queries that reached the compute path, the
  /// three counters partition them: each ran EstimateFromSource itself,
  /// derived from a memoized vector, or waited on a sweep-level flight.
  /// Failed sweeps skew the partition deliberately: sweep_executed counts
  /// every EstimateFromSource invocation (the bench gate's currency is
  /// invocations, successful or not), while a follower handed a failed
  /// sweep counts in `failures` only.
  /// @{
  /// Queries whose worker actually invoked EstimateFromSource — the bench
  /// gate's "<= 1 sweep per distinct (source, generation)" currency.
  uint64_t sweep_executed = 0;
  /// Queries derived (ranked / filtered) from a SweepCache-memoized vector
  /// without running a BFS.
  uint64_t sweep_hits = 0;
  /// Queries that waited on another worker's in-flight sweep of the same
  /// source and derived from its vector (sweep-level single-flight) —
  /// including waiters that *stole strata* of the leader's sweep instead of
  /// blocking (see strata_stolen).
  uint64_t sweep_coalesced = 0;
  /// @}
  /// \name Intra-sweep stratification (stratum scheduler)
  /// @{
  /// Sweep strata actually executed through the stratum scheduler (every
  /// EstimateSweepStratumHits invocation, by leaders and thieves alike).
  uint64_t strata_executed = 0;
  /// Strata executed by a worker that was NOT the sweep's leader: coalesced
  /// waiters that stole unclaimed strata instead of blocking. > 0 means the
  /// single-flight wait turned into useful parallel work.
  uint64_t strata_stolen = 0;
  /// Per-sweep wall-clock latency quantiles (leader start to vector
  /// publish), over every executed sweep. Zeros when no sweep executed.
  double sweep_p50_ms = 0.0;
  double sweep_p95_ms = 0.0;
  /// @}
  /// Always 0: every replica prepares its generation inline. Kept only so
  /// the repository benchmark (perfbench/), which reads it, still compiles.
  uint64_t prebuilt_used = 0;
  /// \name Adaptive routing (zeros when enable_router is off)
  /// @{
  /// Routing decisions made (one per planned query / sweep source).
  uint64_t router_decisions = 0;
  /// Decisions served by the paper-faithful fallback latch.
  uint64_t router_fallbacks = 0;
  /// @}
  /// Per-call wall-clock summed over batches / stream cycles. Overlapping
  /// calls from concurrent clients each contribute their full duration, so
  /// this over-counts real time under multi-client load.
  double wall_seconds = 0.0;
  /// True span: first call start to last call end across all batches and
  /// stream cycles since construction / Reset. Under multi-client overlap
  /// this is real elapsed time, so queries / span_seconds is the exact
  /// aggregate throughput (wall_seconds over-counts overlap).
  double span_seconds = 0.0;
  /// queries / wall_seconds — a lower bound on true throughput when clients
  /// overlap (see wall_seconds); exact for a single client.
  double throughput_qps = 0.0;
  /// queries / span_seconds — exact aggregate throughput, any client count.
  double span_qps = 0.0;
  double mean_ms = 0.0;          ///< mean per-query latency
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  size_t peak_memory_bytes = 0;  ///< max EstimateResult::peak_memory_bytes
  /// Resident index footprint of the engine's replica set, shared indexes
  /// counted once (see IndexMemoryReport).
  IndexMemoryReport index_memory;
  ResultCacheStats cache;
  /// Sweep memoization effectiveness (zeros when the sweep cache is off).
  SweepCacheStats sweep_cache;
};

/// \brief Thread-safe recorder of per-query outcomes — a *view over the
/// metrics registry*.
///
/// Every Record* call lands in a named registry instrument (see
/// src/obs/README.md for the name map), so one MetricsRegistry::ExportJson()
/// scrape reports everything this struct ever showed; Snapshot() reads the
/// same instruments back into the legacy EngineStatsSnapshot shape. Latency
/// quantiles come from bounded log-bucketed histograms (<= 1/16 relative
/// error, extremes exact), replacing the former unbounded sample vectors —
/// recording is lock-free and O(1), and long-running servers no longer grow
/// per-query state.
class EngineStats {
 public:
  /// Records into `registry` (not owned; must outlive this object), or into
  /// a privately owned registry when nullptr.
  explicit EngineStats(obs::MetricsRegistry* registry = nullptr);

  /// Records one estimator-executed query: its latency and working-set peak.
  void RecordExecuted(double seconds, size_t peak_memory_bytes);

  /// Records one query served from the result cache (zero marginal latency).
  void RecordCacheHit();

  /// Records one query that shared an in-flight twin's computation;
  /// `wait_seconds` is the time spent waiting for the leader.
  void RecordCoalesced(double wait_seconds);

  /// Records one query that finished with a non-OK per-query status.
  void RecordFailure(double seconds);

  /// Records one query refused at admission. `reason` labels
  /// engine_shed_total ("queue_full" when the pool queue is at capacity,
  /// "overload" for the predictive gate). Shed queries are NOT recorded as
  /// queries — the caller never entered the engine.
  void RecordShed(const char* reason);

  /// Records one query that failed because its deadline elapsed or its
  /// CancelToken fired (called alongside RecordFailure).
  void RecordDeadlineExceeded();

  /// Records one query answered stale (called alongside RecordCacheHit).
  void RecordStaleServed();

  /// Classifies how one executed sweep-kind query obtained its per-source
  /// vector (called alongside RecordExecuted, at most once per query).
  void RecordSweepExecuted();
  void RecordSweepHit();
  void RecordSweepCoalesced();

  /// Records one executed sweep stratum; `stolen` when the executing worker
  /// was not the sweep's leader (a coalesced waiter working instead of
  /// blocking).
  void RecordStratum(bool stolen);

  /// Records one executed sweep's wall-clock (leader start to publish), the
  /// sample behind the per-sweep latency quantiles.
  void RecordSweepLatency(double seconds);

  /// Counts one query against its workload kind (called once per query, on
  /// top of exactly one of the Record* outcomes above).
  void RecordWorkload(WorkloadKind kind);

  /// Adds batch wall-clock time to the throughput denominator.
  void AddWallTime(double seconds);

  /// Marks the start / end of one engine call (batch or stream cycle) for
  /// true-span tracking: span = first MarkCallStart to last MarkCallEnd.
  void MarkCallStart();
  void MarkCallEnd();

  /// Reads the registry instruments back into the legacy snapshot shape;
  /// `cache` / `sweep_cache` (optional) are embedded in the snapshot.
  EngineStatsSnapshot Snapshot(const ResultCache* cache = nullptr,
                               const SweepCache* sweep_cache = nullptr) const;

  /// Resets the instruments this recorder owns (queries, latencies, wall
  /// time, span). Instruments registered by other components sharing the
  /// registry — cache counters are monotonic by contract — are untouched.
  void Reset();

  /// The registry everything records into (for scraping / sharing).
  obs::MetricsRegistry& registry() const { return *registry_; }

 private:
  static constexpr uint64_t kNoStamp = ~uint64_t{0};

  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;

  obs::Histogram* query_latency_ns_;
  obs::Histogram* sweep_latency_ns_;
  obs::Counter* executed_;
  obs::Counter* coalesced_;
  obs::Counter* failures_;
  obs::Counter* shed_queue_full_;
  obs::Counter* shed_overload_;
  obs::Counter* deadline_exceeded_;
  obs::Counter* stale_served_;
  obs::Counter* workload_queries_[kNumWorkloadKinds];
  obs::Counter* sweep_executed_;
  obs::Counter* sweep_hits_;
  obs::Counter* sweep_coalesced_;
  obs::Counter* strata_executed_;
  obs::Counter* strata_stolen_;
  obs::Gauge* wall_seconds_;
  obs::Gauge* span_seconds_;
  obs::Gauge* peak_memory_bytes_;
  /// Mirrors of FaultInjector::Global() per-site counts, synced by
  /// Snapshot() so fault_injected_total{site} is scrapeable alongside the
  /// engine's own instruments.
  obs::Gauge* fault_injected_[kNumFaultSites];

  /// Min start / max end stamps across concurrent calls (CAS races resolve
  /// to the extremes whatever order the threads arrive in).
  std::atomic<uint64_t> span_first_start_ns_{kNoStamp};
  std::atomic<uint64_t> span_last_end_ns_{0};
};

/// One row per (label, snapshot): queries, qps, latency quantiles, cache hit
/// rate. The bench and example binaries print this via eval/table.
TextTable EngineStatsTable(
    const std::vector<std::pair<std::string, EngineStatsSnapshot>>& rows);

}  // namespace relcomp
