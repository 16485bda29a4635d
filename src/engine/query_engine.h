#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/cancel.h"
#include "common/timer.h"
#include "engine/engine_stats.h"
#include "engine/result_cache.h"
#include "engine/router.h"
#include "engine/sweep_cache.h"
#include "engine/thread_pool.h"
#include "graph/uncertain_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/store.h"
#include "reliability/estimator_factory.h"
#include "reliability/workload.h"

namespace relcomp {

/// \brief Construction knobs for QueryEngine::Create.
struct EngineOptions {
  /// Worker threads; one estimator replica is built per worker. Replicas of
  /// index-carrying estimators share one immutable index (built once), so
  /// Create cost and index memory are O(1) in num_threads.
  size_t num_threads = 4;
  /// Bounded work-queue depth; Submit() blocks when full (backpressure).
  size_t queue_capacity = 1024;
  /// Which estimator answers the queries. Workload support varies by kind:
  /// every kind answers st; MC and BFS Sharing answer top-k / reliable-set
  /// sweeps; MC and RHH answer distance-constrained queries. An unsupported
  /// (kind, workload) pair fails that query (NotSupported), never the batch.
  EstimatorKind kind = EstimatorKind::kMonteCarlo;
  /// Sample budget K per query.
  uint32_t num_samples = 1000;
  /// Stratified sample partitioning S: the budget K of every MC estimate is
  /// split into S fixed strata, each seeded from the query's content seed
  /// and its stratum index — so a result is a canonical function of (query
  /// content, S), never of thread count or scheduling. Under sweep-level
  /// single-flight, coalesced waiters *steal unclaimed strata* of the
  /// in-flight sweep instead of blocking: one hot sweep uses the whole
  /// machine, bit-identically to running its strata back-to-back on one
  /// worker. S = 1 (the default) is the legacy unstratified path; serving
  /// deployments chasing tail latency set S to a small multiple of
  /// num_threads. Changing S changes MC results (by design — it is part of
  /// the query's sampling plan); BFS Sharing sweeps are stratified by world
  /// slices of one generation and are bit-identical for every S.
  uint32_t num_strata = 1;
  /// Master seed. Per-query seeds are derived from it and the query content
  /// (see README.md), so results are independent of thread count and
  /// scheduling order.
  uint64_t seed = 0;
  /// Result cache on/off + sizing.
  bool enable_cache = true;
  size_t cache_capacity = 1 << 16;
  size_t cache_shards = 8;
  /// Byte budget for the result cache (0 = unlimited): entries are charged
  /// their real payload bytes — a top-k entry carrying k ranked targets
  /// costs ~k× an s-t scalar — and each shard evicts by bytes on top of the
  /// entry capacity. See ResultCache.
  size_t cache_max_bytes = 0;
  /// TTL in seconds for successful cache entries; 0 = never expire. Expired
  /// entries are dropped on the lookup that discovers them and counted in
  /// ResultCacheStats::expired. Content-deterministic answers make expiry
  /// semantically invisible: a recompute returns the identical result.
  double cache_ttl = 0.0;
  /// Failure backoff: estimator errors are cached for this many seconds
  /// (negative caching), so a hot failing key stops recomputing — and
  /// re-failing — on every miss; after the TTL it retries. 0 disables
  /// negative caching. Requires enable_cache.
  double negative_cache_ttl = 1.0;
  /// Single-flight request coalescing: concurrent cache misses for the same
  /// key share one in-flight computation instead of computing twins on
  /// separate workers — at the query level AND at the sweep level (misses
  /// that need the same source's sweep, even across workload kinds and
  /// parameters, share one EstimateFromSource). Semantically invisible
  /// (results are content-deterministic); off only for A/B measurement.
  bool enable_coalescing = true;
  /// Sweep memoization: keep the per-source reliability vector of top-k /
  /// reliable-set queries in a size-aware SweepCache so later queries over
  /// the same source — any k, any eta — derive their answers without
  /// re-running the BFS. Independent of enable_cache (the result cache
  /// memoizes derived answers per exact query; the sweep cache memoizes the
  /// vector they derive from). Semantically invisible: the engine's sweep
  /// seeds depend only on the source, so a derived answer is bit-identical
  /// to a recomputation.
  bool enable_sweep_cache = true;
  /// Byte budget for the sweep cache (one sweep = num_nodes doubles).
  size_t sweep_cache_max_bytes = size_t{128} << 20;
  /// \name Fault tolerance & graceful degradation (see README "Failure
  /// semantics & degraded modes")
  /// @{
  /// Deadline in milliseconds applied to every query that does not carry its
  /// own EngineQuery::deadline_ms; 0 = no default deadline. The clock starts
  /// at submission, so queue wait counts against it. An expired query fails
  /// with kDeadlineExceeded — a transient status, never negative-cached —
  /// and cancellation is cooperative and all-or-nothing: a query either
  /// completes with its full bit-identical answer or returns no result at
  /// all, so deadlines never change any completed answer.
  double default_deadline_ms = 0.0;
  /// Admission control on the stream path (Submit): refuse work up front
  /// with kUnavailable (and a retry_after_ms hint in the message) instead of
  /// queueing unboundedly. RunBatch is exempt by design — batches are
  /// trusted pre-validated workloads whose caller already owns their size.
  bool enable_load_shedding = false;
  /// Queue depth at which the predictive gate starts shedding cheap-to-retry
  /// work (queries no cache can serve); 0 = shed only when the queue is
  /// completely full. Cache-servable queries are always admitted — they
  /// resolve in O(1) without a worker.
  size_t shed_queue_depth = 0;
  /// Stale-while-revalidate window in seconds: a TTL-expired result-cache
  /// entry whose deadline elapsed less than this long ago is served
  /// immediately — flagged in EngineResult::served_stale — while one
  /// background task recomputes it through the normal single-flight
  /// machinery. 0 (the default) disables SWR: expired entries are recomputed
  /// synchronously, the pre-SWR behavior. Content-determinism makes a stale
  /// entry byte-identical to its recomputation, so SWR trades only metadata
  /// freshness (TTL bookkeeping), never answer correctness.
  double max_stale_seconds = 0.0;
  /// @}
  /// \name Crash-safe persistence (src/persist/) & background refresh lane
  /// (see src/engine/README.md, "Restart semantics")
  /// @{
  /// Directory for the checksummed snapshot + warm-state journal; empty (the
  /// default) disables persistence entirely. With a valid snapshot present,
  /// Create cold-starts in O(1) by mmapping the index sections instead of
  /// rebuilding; a corrupt or mismatched snapshot degrades to
  /// rebuild-from-source (detected, counted, never fatal). Answers are
  /// bit-identical either way: restored artifacts feed the same
  /// content-derived seed machinery as freshly built ones.
  std::string persist_dir;
  /// Replay the warm-state journal into the result and sweep caches at
  /// Create (only with persist_dir set). Replayed entries re-derive their
  /// cache keys from this engine's plans and seeds — a record journaled
  /// under a different configuration is skipped, never served.
  bool warm_restore = true;
  /// Write a snapshot automatically when Create had to rebuild from source
  /// (only with persist_dir set), so the *next* restart cold-starts O(1).
  bool persist_auto_snapshot = true;
  /// Period in seconds of the background warm-state flush (cache exports
  /// appended to the journal, then fsynced); 0 disables the periodic flusher
  /// (FlushWarmState can still be called manually). A final flush always
  /// runs at engine destruction.
  double persist_flush_seconds = 1.0;
  /// Width of the dedicated low-priority refresh lane: an auxiliary pool
  /// (with its own estimator replicas) that runs stale-while-revalidate
  /// refreshes and journal flushes so background work never competes with
  /// serving queries for the main pool. Engaged only when there is
  /// background work to run (max_stale_seconds > 0 or persist_dir set);
  /// 0 falls back to the serving pool (the pre-lane behavior). Queue +
  /// in-flight depth is exported as the `refresh_lane_depth` gauge.
  size_t refresh_lane_threads = 1;
  /// @}
  /// \name Observability (see src/obs/README.md)
  /// Tracing is never part of the determinism contract: answers are
  /// bit-identical with any sample rate, at any thread count.
  /// @{
  /// Fraction of queries whose span trees are published to the trace ring
  /// (deterministic in the query id; 1 traces everything). 0 — the default —
  /// plus slow_query_ms == 0 disengages tracing entirely: the hot path then
  /// allocates nothing and records no spans.
  double trace_sample_rate = 0.0;
  /// Queries slower than this many milliseconds get their span tree
  /// formatted into the tracer's slow-query log, sampled or not. 0 disables
  /// the log.
  double slow_query_ms = 0.0;
  /// Span capacity of the trace ring (rounded up to a power of two).
  size_t trace_ring_capacity = 4096;
  /// @}
  /// \name Adaptive estimator routing (see src/engine/router.h)
  /// @{
  /// Per-query (backend, budget, strata) selection from a calibrated cost
  /// model. Off by default: `false` reproduces the static-knob engine
  /// byte-for-byte (same seeds, same cache keys, same answers). On, every
  /// query's plan comes from EstimatorRouter::Decide — a deterministic
  /// function of the query's content features — and the chosen
  /// (kind, K, S) folds into the query's seed and cache keys exactly as the
  /// static knobs do, so routed answers are bit-identical at any thread
  /// count while the fallback latch stays disengaged.
  bool enable_router = false;
  /// Routing knobs: fallback gate, hysteresis margin, budget floor, strata
  /// ceiling (only consulted when enable_router).
  RouterOptions router;
  /// Calibrated per-backend latency/accuracy profile — the JSON document
  /// `examples/estimator_tournament --json` emits — as a string. Empty: the
  /// router builds RouterModel::Default from each candidate backend's
  /// CostHints. Malformed JSON fails Create.
  std::string router_profile_json;
  /// @}
  /// Estimator construction knobs (index parameters, index seed).
  FactoryOptions factory;
};

/// \brief Outcome of one engine query (any workload kind).
struct EngineResult {
  EngineQuery query;
  /// Per-query outcome. A non-OK status means this query's estimator call
  /// failed (or its workload is unsupported by the engine's estimator
  /// kind); the payload fields are meaningless then. Other queries in the
  /// same batch / stream cycle are unaffected.
  Status status;
  /// Scalar payload for st / distance queries.
  double reliability = 0.0;
  /// Ranked payload for top-k / reliable-set queries (decreasing
  /// reliability, ties toward smaller node ids, source excluded).
  std::vector<ReliableTarget> targets;
  uint32_t num_samples = 0;
  /// The execution plan this query ran under: the static knobs echoed when
  /// the router is off, the routing decision when it is on (plan.routed /
  /// plan.fallback tell which).
  QueryPlan plan;
  /// Seconds from dispatch on a worker to completion (0 for cache hits, which
  /// never reach a worker's estimator; wait time for coalesced queries).
  double seconds = 0.0;
  /// The derived per-query seed actually used.
  uint64_t seed = 0;
  bool cache_hit = false;
  /// True when this query shared an in-flight twin's computation instead of
  /// invoking an estimator itself (single-flight coalescing).
  bool coalesced = false;
  /// True when the answer came from a TTL-expired cache entry served inside
  /// the stale-while-revalidate window (EngineOptions::max_stale_seconds).
  /// The payload is still bit-identical to a fresh recomputation — staleness
  /// is a TTL-policy fact, surfaced so callers can observe degraded mode.
  bool served_stale = false;

  bool ok() const { return status.ok(); }
};

/// \brief Concurrent batch engine for the reliability workload family.
///
/// Executes batches (RunBatch) or a stream (Submit/Drain) of EngineQuerys —
/// s-t reliability, top-k, reliable-set, and distance-constrained queries in
/// one mixed pipeline — on a fixed thread pool. Each worker owns a private
/// estimator replica (Estimator instances are not thread-safe);
/// index-carrying replicas share one immutable index. Every query's seed is
/// derived from the master seed and the query's content (workload tag
/// included) — so a batch returns bit-identical results whether it runs on 1
/// thread or 16, with the cache and coalescing on or off, and engine top-k /
/// reliable-set answers match the standalone TopKReliableTargets* /
/// ReliableSet* APIs exactly. See src/engine/README.md for the contract.
///
/// Thread-safe: concurrent RunBatch/Submit/Drain calls from multiple client
/// threads are safe and share the pool, cache, and cumulative stats.
/// Failures are per-query: each EngineResult carries its own Status, so one
/// estimator failure never discards the rest of a batch or stream cycle.
class QueryEngine {
 public:
  /// Builds the pool and one estimator replica per worker. Index-carrying
  /// kinds build their index exactly once and share it across replicas
  /// (deterministic, so replicas are interchangeable).
  static Result<std::unique_ptr<QueryEngine>> Create(
      const UncertainGraph& graph, const EngineOptions& options);

  ~QueryEngine();
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Executes `queries` (any workload mix) and returns results in input
  /// order. Malformed queries (nodes outside the graph, k = 0, eta outside
  /// [0, 1]) fail the whole batch up front (first error wins) — batches are
  /// meant to be pre-validated workloads. Estimator failures during
  /// execution do NOT fail the batch: they land in the corresponding
  /// EngineResult::status.
  Result<std::vector<EngineResult>> RunBatch(
      const std::vector<EngineQuery>& queries);

  /// s-t convenience: wraps each pair as an EngineQuery (WorkloadKind::kSt).
  Result<std::vector<EngineResult>> RunBatch(
      const std::vector<ReliabilityQuery>& queries);

  /// Stream interface: enqueues one query (blocking while the work queue is
  /// full) for asynchronous execution.
  Status Submit(const EngineQuery& query);
  Status Submit(const ReliabilityQuery& query) {
    return Submit(EngineQuery(query));
  }

  /// Waits for every Submit()ted query to finish and returns their results
  /// in submission order, clearing the stream buffer. Estimator failures
  /// surface in the per-result Status; finished answers are never discarded.
  Result<std::vector<EngineResult>> Drain();

  /// Derived seed for `query` under this engine's configuration; exposed so
  /// callers can reproduce any single engine answer with a bare estimator
  /// (or the standalone top-k / reliable-set / distance APIs).
  ///
  /// Sweep kinds (top-k, reliable-set) get the *sweep seed* of their source
  /// — derived from (source, estimator kind, sample budget) but NOT from k,
  /// eta, or the workload tag — so every sweep-kind query over one source
  /// shares one seed, and therefore one per-source sweep (the sweep-sharing
  /// contract). St / distance seeds fold every query field as before.
  uint64_t QuerySeed(const EngineQuery& query) const;

  /// The per-source sweep seed (see QuerySeed). `SweepSeed(s)` ==
  /// `QuerySeed(q)` for every sweep-kind q with source s.
  uint64_t SweepSeed(NodeId source) const;
  uint64_t QuerySeed(const ReliabilityQuery& query) const {
    return QuerySeed(EngineQuery(query));
  }

  /// Seed the engine passes to Estimator::PrepareForNextQuery before
  /// estimating `query` (a tagged derivative of QuerySeed); with QuerySeed
  /// this fully reproduces an engine answer on a bare estimator.
  uint64_t PrepareSeed(const EngineQuery& query) const;
  uint64_t PrepareSeed(const ReliabilityQuery& query) const {
    return PrepareSeed(EngineQuery(query));
  }

  /// The execution plan `query` runs under. Router off: the static knobs
  /// (kind, num_samples, num_strata) echoed back, plan.routed == false.
  /// Router on: the EstimatorRouter decision — with QuerySeed this fully
  /// reproduces a routed engine answer on a bare estimator of plan.kind.
  /// Sweep-kind queries get their source's SweepPlan (identical for every
  /// k / eta / sweep-workload tag over one source, the sweep-sharing
  /// contract).
  QueryPlan PlanFor(const EngineQuery& query) const;

  /// The per-source sweep plan (see PlanFor). `SweepPlan(s)` ==
  /// `PlanFor(q)` for every sweep-kind q with source s.
  QueryPlan SweepPlan(NodeId source) const;

  const EngineOptions& options() const { return options_; }
  size_t num_threads() const { return pool_->num_threads(); }
  /// nullptr when the cache is disabled.
  const ResultCache* cache() const { return cache_.get(); }
  /// nullptr when sweep memoization is disabled.
  const SweepCache* sweep_cache() const { return sweep_cache_.get(); }
  /// Deduplicated resident index footprint of the replica set (a shared
  /// index is counted once, not once per replica).
  IndexMemoryReport IndexMemory() const;
  /// Cumulative since construction (RunBatch and stream both feed it).
  EngineStatsSnapshot StatsSnapshot() const;
  void ResetStats() { stats_.Reset(); }

  /// Engine-wide instrument registry: the stats recorder, both caches, the
  /// pool's queue-wait histogram, and the stage histograms all record into
  /// this one registry, so a single ExportJson() / ExportText() scrape
  /// reports everything the engine measures.
  obs::MetricsRegistry& metrics() const { return *registry_; }

  /// Per-query tracing sink: the span ring (trace_sample_rate) and the
  /// slow-query log (slow_query_ms).
  obs::Tracer& tracer() const { return *tracer_; }

  /// The adaptive router; nullptr when enable_router is false.
  const EstimatorRouter* router() const { return router_.get(); }

  /// \name Crash-safe persistence (EngineOptions::persist_dir)
  /// @{
  /// What Create recovered at startup; all-false/zero when persistence is
  /// off. `snapshot_restored` means the index artifacts came from the mmap'd
  /// snapshot (O(1) cold start) instead of a rebuild.
  struct WarmRestoreReport {
    bool attempted = false;         ///< persist_dir set and warm_restore on
    bool snapshot_restored = false; ///< indexes restored from the snapshot
    bool torn_tail = false;         ///< journal ended in a torn frame
    uint64_t sweep_entries = 0;     ///< sweeps folded back into the cache
    uint64_t result_entries = 0;    ///< results folded back into the cache
    uint64_t skipped = 0;           ///< records for a different config/seed
  };
  const WarmRestoreReport& warm_restore_report() const { return warm_report_; }

  /// Writes and atomically publishes a snapshot of the graph plus the
  /// current shared index (if the estimator kind carries one).
  /// FailedPrecondition without persist_dir.
  Status PersistSnapshot();

  /// Exports the warm caches into the journal and fsyncs it — the operation
  /// the background flusher runs every persist_flush_seconds. Idempotent
  /// per entry (already-journaled keys are skipped). FailedPrecondition
  /// without persist_dir.
  Status FlushWarmState();

  /// nullptr when persistence is off.
  const PersistentStore* persist_store() const { return store_.get(); }
  /// @}

 private:
  /// One routing candidate's replica set: every candidate kind gets one
  /// replica per worker, exactly like the primary set (index-carrying kinds
  /// share one index across their set).
  struct CandidateReplicas {
    EstimatorKind kind;
    std::vector<std::unique_ptr<Estimator>> replicas;
  };

  /// `registry` and `store` are created in Create (the store needs the
  /// registry for its recovery counters *before* replicas exist, so the
  /// snapshot restore they feed into is counted).
  QueryEngine(const UncertainGraph& graph, EngineOptions options,
              std::unique_ptr<obs::MetricsRegistry> registry,
              std::unique_ptr<PersistentStore> store,
              std::vector<std::unique_ptr<Estimator>> replicas,
              std::vector<CandidateReplicas> extra_replicas);

  /// Per-call completion state, shared only by that call's worker tasks:
  /// each call waits on its own counter instead of global pool idleness (so
  /// one client's endless stream cannot stall another's batch).
  struct CallState {
    std::mutex mutex;
    std::condition_variable done;
    size_t pending = 0;  ///< tasks submitted but not yet finished
  };

  /// One single-flight computation in progress: the first worker to miss the
  /// cache for a key becomes the leader and computes; concurrent misses for
  /// the same key wait here and copy the leader's outcome.
  struct InFlight {
    std::mutex mutex;
    std::condition_variable done;
    bool ready = false;
    ResultCacheValue value;  ///< carries the Status (negative on failure)
  };

  /// One sweep-level single-flight, reworked into a *stratum scheduler*:
  /// the first worker to need a source's sweep becomes the leader, but the
  /// sweep's S strata are a shared work-list — workers needing the same
  /// sweep under *different* query keys (other k, other eta, other workload
  /// kind) steal unclaimed strata instead of blocking on the leader. Each
  /// stratum is a canonical function of (sweep seed, stratum index), so the
  /// merged vector is bit-identical however the strata were distributed.
  /// Per-stratum hit-count vectors merge deterministically in stratum order
  /// once every stratum has deposited.
  struct SweepFlight {
    std::mutex mutex;
    std::condition_variable done;
    /// Strata of this sweep (fixed at creation: the sweep plan's num_strata
    /// when the estimator has a stratified core, else 1).
    uint32_t num_strata = 1;
    /// The sweep plan's total budget K (fixed at creation; the merge
    /// divisor). Every participant reached this flight through the same
    /// plan-derived key, so the plan knobs are flight invariants.
    uint32_t num_samples = 0;
    /// True when the estimator has no stratified core: the single "stratum"
    /// runs the whole EstimateFromSource into `whole`.
    bool whole_sweep = false;
    uint32_t next_stratum = 0;  ///< next unclaimed stratum
    uint32_t active = 0;        ///< claimed but not yet deposited
    uint32_t completed = 0;     ///< deposited strata (ok or failed)
    bool finalizing = false;    ///< one participant merges and publishes
    Timer timer;                ///< leader start -> publish (sweep latency)
    /// Per-stratum hit counts, deposited by whichever worker ran each.
    std::vector<std::vector<uint32_t>> stratum_hits;
    /// Whole-sweep result for the no-stratified-core fallback.
    std::shared_ptr<const std::vector<double>> whole;
    /// Read-only snapshot of the first preparer's prepared state
    /// (ShareCurrentPreparedState), when the estimator supports it:
    /// later-arriving thieves adopt it in O(1) instead of re-running the
    /// same O(L·m) prepare on their own replica.
    std::shared_ptr<const PreparedGeneration> prepared_state;
    Status status;  ///< first stratum / prepare failure wins
    size_t peak_memory_bytes = 0;
    bool ready = false;
    std::shared_ptr<const std::vector<double>> vector;
  };

  /// How a worker obtained a per-source sweep vector.
  struct SweepShare {
    std::shared_ptr<const std::vector<double>> vector;
    /// The sweep's tracked working-set peak (max over every participant's
    /// strata) for flight participants — leaders and joiners alike. 0 for
    /// SweepCache hits.
    size_t peak_memory_bytes = 0;
  };

  /// Executes one query on `worker_id`'s replica (or serves it from cache /
  /// an in-flight twin), writing outcome and per-query status into `slot`.
  /// `enqueue_ns` is the Submit-time stamp (the root span's begin and the
  /// queue-wait span's extent when the query is traced).
  ///
  /// The `trace` / parent-span parameters threaded through the methods below
  /// are nullptr / kNone for untraced queries; every span call no-ops then.
  void RunOne(size_t worker_id, const EngineQuery& query, EngineResult* slot,
              uint64_t enqueue_ns);

  /// Compute path of one query (after the cache / query-level flight said
  /// miss): sweep kinds go through the sweep-sharing layer, everything else
  /// through PrepareForNextQuery + DispatchWorkload.
  /// `cancel` (nullable) is the query's deadline/cancellation token, polled
  /// cooperatively by the estimator loops and the flight machinery below.
  Result<WorkloadResult> ComputeWorkload(size_t worker_id,
                                         const EngineQuery& query,
                                         const QueryPlan& plan,
                                         uint64_t query_seed,
                                         const CancelToken* cancel,
                                         obs::TraceBuffer* trace,
                                         uint32_t parent);

  /// Obtains `query.source`'s sweep vector: from the SweepCache, by joining
  /// a sweep-level flight (stealing unclaimed strata, then waiting for the
  /// merge), or by leading one — publishing to the SweepCache and the
  /// flight's participants. Records exactly one of sweep_hit /
  /// sweep_coalesced / sweep_executed per call.
  Result<SweepShare> GetSweepVector(size_t worker_id, const EngineQuery& query,
                                    const QueryPlan& plan, uint64_t sweep_seed,
                                    const CancelToken* cancel,
                                    obs::TraceBuffer* trace, uint32_t parent);

  /// Participates in `flight`: claims and executes unclaimed strata on this
  /// worker's replica (preparing it once, on the first claim), deposits
  /// their hit counts, and — if this worker drains the last stratum —
  /// merges in stratum order, publishes to the SweepCache, retires the
  /// flight entry, and wakes everyone. `leader` controls the strata_stolen
  /// accounting.
  ///
  /// Cancellation (`cancel` non-null and tripped) has two deterministic
  /// shapes, decided under the flight lock:
  /// - other participants are still executing (or all strata are claimed):
  ///   this participant *abandons* — returns its token's transient status
  ///   without waiting; the flight lives on and completes normally for
  ///   everyone else.
  /// - this participant is the last active one and unclaimed strata remain:
  ///   without it the flight could stall on waiters with no workers, so it
  ///   fails the flight *as a unit* (flight->status = the token's status)
  ///   and drains it through the normal finalize path — every waiter wakes
  ///   with the same transient status, no torn vector is ever published.
  /// OK means the flight reached `ready` (flight->status tells how it
  /// ended); non-OK is the abandoning participant's own transient status.
  Status RunSweepFlight(size_t worker_id, NodeId source, const QueryPlan& plan,
                        uint64_t sweep_seed, const SweepCacheKey& key,
                        const std::shared_ptr<SweepFlight>& flight, bool leader,
                        const CancelToken* cancel, obs::TraceBuffer* trace,
                        uint32_t parent);

  /// Serial sweep for the coalescing-off path: one EstimateFromSource with
  /// the engine's stratum count (bit-identical to a stolen-strata merge).
  Result<SweepShare> ComputeSweepSerial(size_t worker_id,
                                        const EngineQuery& query,
                                        const QueryPlan& plan,
                                        uint64_t sweep_seed,
                                        const SweepCacheKey& key,
                                        const CancelToken* cancel,
                                        obs::TraceBuffer* trace,
                                        uint32_t parent);

  /// Single-flight rendezvous for `key` under sweep_inflight_mutex_:
  /// re-probes the SweepCache (publish-then-retire makes this exact),
  /// then joins the existing flight or creates-and-initializes a fresh one.
  /// Returns nullptr when the double-check served the sweep (`*cached`
  /// holds the vector); otherwise the flight, with `*leader` true iff this
  /// caller created it.
  std::shared_ptr<SweepFlight> JoinOrCreateSweepFlight(
      size_t worker_id, const QueryPlan& plan, const SweepCacheKey& key,
      bool* leader, std::shared_ptr<const std::vector<double>>* cached);

  /// Seed derivation under an explicit plan: plan.kind / plan.num_samples
  /// fold in the exact positions the static knobs occupy today, and
  /// plan.num_strata folds additionally — but only when the router is on,
  /// so enable_router == false reproduces the static seeds byte-for-byte.
  uint64_t SeedForPlan(const EngineQuery& query, const QueryPlan& plan) const;
  uint64_t SweepSeedForPlan(NodeId source, const QueryPlan& plan) const;

  /// The `worker_id` replica of `kind`: the primary set when kind matches
  /// the engine's static kind, the candidate set otherwise. The router only
  /// ever decides kinds a replica set exists for.
  Estimator& ReplicaFor(EstimatorKind kind, size_t worker_id);

  /// Builds router_ and escape_prob_ when enable_router (called from Create
  /// right after construction; a malformed router_profile_json fails engine
  /// creation). No-op when the router is off.
  Status InitRouter();

  /// Cache lookup + single-flight rendezvous for `key`. Returns true when
  /// `slot` was fully served (cache hit — positive or negative — or
  /// coalesced); otherwise the caller is the leader (or coalescing is off)
  /// and must compute, then call FinishFlight with the outcome.
  /// `cancel` (nullable) bounds the coalesced-follower wait: a follower
  /// whose token trips stops waiting and fails with the token's transient
  /// status (counted as a failure, not coalesced); the flight completes
  /// normally for everyone else.
  bool TryServeWithoutCompute(const ResultCacheKey& key, EngineResult* slot,
                              std::shared_ptr<InFlight>* leader_flight,
                              const CancelToken* cancel,
                              obs::TraceBuffer* trace, uint32_t parent);

  /// Load-shedding admission gate for the stream path (Submit): OK admits;
  /// kUnavailable (with a retry_after_ms hint) sheds. Shed queries never
  /// enter the engine, so they are invisible to the query-partition
  /// invariant (executed + coalesced + failures + cache hits == queries).
  Status AdmitQuery(const EngineQuery& query);

  /// True when `query` will resolve from the result or sweep cache without
  /// occupying a worker — such queries are always admitted under overload.
  bool ServableFromCache(const EngineQuery& query) const;

  /// Kicks off the background stale-while-revalidate recompute this caller
  /// owns (LookupStale handed it refresh_owner). Best-effort: a full pool
  /// re-arms the entry instead (ClearRefreshPending). The refresh records
  /// nothing into per-query stats — no query is behind it.
  void ScheduleResultRefresh(const ResultCacheKey& key);

  /// Width of the auxiliary refresh lane this configuration runs (0 = no
  /// lane; refreshes fall back to the serving pool).
  size_t RefreshLaneWidth() const;

  /// Routes a background task onto the refresh lane when one exists (the
  /// task then runs with an aux-replica worker id, num_threads + lane slot,
  /// and moves the refresh_lane_depth gauge), else TrySubmits to the serving
  /// pool — the pre-lane behavior.
  Status SubmitRefreshTask(ThreadPool::Task task);

  /// Periodic flusher body: sleeps persist_flush_seconds between
  /// FlushWarmState rounds (routed through the refresh lane) until shutdown.
  void FlusherLoop();

  /// Replays the warm journal into the caches (Create-time, after the
  /// router exists — restored keys re-derive from this engine's plans).
  void RestoreWarmState();

  /// Publishes the leader's outcome: inserts into the cache (successes under
  /// cache_ttl, failures under negative_cache_ttl when enabled), removes the
  /// in-flight entry, and wakes the waiters.
  void FinishFlight(const ResultCacheKey& key,
                    const std::shared_ptr<InFlight>& flight,
                    const ResultCacheValue& value);

  /// Cache insertion policy shared by the leader and non-coalescing paths.
  void PublishToCache(const ResultCacheKey& key, const ResultCacheValue& value);

  /// Moves a cached / in-flight payload (and its status) into `slot`. Pass
  /// a copy when the source is shared (a flight value read by many
  /// followers); pass an expiring lookup result to skip the targets copy.
  static void FillFromValue(ResultCacheValue value, EngineResult* slot);

  /// Blocks until every task accounted to `state` has finished.
  static void AwaitCall(CallState& state);

  const UncertainGraph& graph_;
  const EngineOptions options_;
  /// Declared before every component that records into it (stats, caches,
  /// pool), so it is destroyed last: workers may still record while the
  /// pool drains during shutdown.
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::Tracer> tracer_;
  /// Crash-safe persistence root; nullptr when persist_dir is empty.
  /// Declared right after the registry (its counters) and before everything
  /// that may journal into it during shutdown.
  std::unique_ptr<PersistentStore> store_;
  std::vector<std::unique_ptr<Estimator>> replicas_;
  /// Routing candidates beyond the static kind (empty when the router is
  /// off): one replica set per candidate kind, same per-worker discipline as
  /// replicas_.
  std::vector<CandidateReplicas> extra_replicas_;
  /// nullptr when enable_router is false.
  std::unique_ptr<EstimatorRouter> router_;
  /// Escape probability eps(s) per node (see QueryFeatures::escape_prob),
  /// precomputed once at construction; empty when the router is off.
  std::vector<double> escape_prob_;
  /// Some replica set (primary or candidate) answers source sweeps.
  bool sweep_capable_ = false;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<ThreadPool> pool_;
  /// Dedicated low-priority refresh lane (SWR refreshes, journal flushes);
  /// nullptr when RefreshLaneWidth() == 0. Its workers run on the aux
  /// replicas replicas_[num_threads ..], never the serving replicas.
  std::unique_ptr<ThreadPool> aux_pool_;
  /// Queued + in-flight refresh-lane tasks (`refresh_lane_depth`).
  obs::Gauge* refresh_lane_depth_ = nullptr;
  EngineStats stats_;

  /// Always-on stage latency histograms, one labeled family
  /// (engine_stage_latency_ns{stage=...}); the queue_wait member of the
  /// family is recorded inside the pool.
  obs::Histogram* stage_cache_probe_;
  obs::Histogram* stage_prepare_;
  obs::Histogram* stage_estimate_;
  obs::Histogram* stage_stratum_;
  obs::Histogram* stage_merge_;
  obs::Histogram* stage_publish_;
  obs::Histogram* stage_derive_;
  obs::Histogram* stage_sweep_wait_;

  struct KeyHash {
    size_t operator()(const ResultCacheKey& key) const {
      return static_cast<size_t>(key.Hash());
    }
  };

  /// Single-flight table: full cache key -> in-flight computation (full key,
  /// not hash — hash collisions must never coalesce distinct queries).
  /// Guarded by inflight_mutex_; entries exist only while a leader computes.
  std::mutex inflight_mutex_;
  std::unordered_map<ResultCacheKey, std::shared_ptr<InFlight>, KeyHash>
      inflight_;

  struct SweepKeyHash {
    size_t operator()(const SweepCacheKey& key) const {
      return static_cast<size_t>(key.Hash());
    }
  };

  /// Sweep-level single-flight table, same invariants as inflight_: entries
  /// exist only while at least one participant actively runs the sweep's
  /// strata on a worker, so a waiter never waits on queued-but-unstarted
  /// work. A query-level leader may wait on (or steal strata of) a sweep
  /// flight, never the other way around — the wait graph is a depth-2 DAG,
  /// no cycles.
  std::mutex sweep_inflight_mutex_;
  std::unordered_map<SweepCacheKey, std::shared_ptr<SweepFlight>, SweepKeyHash>
      sweep_inflight_;

  /// Memoized per-source sweeps; nullptr when disabled.
  std::unique_ptr<SweepCache> sweep_cache_;

  /// \name Warm-state journaling (guarded by journal_mutex_)
  /// @{
  std::mutex journal_mutex_;
  /// Key hashes already appended to the journal this process lifetime —
  /// the journal is append-only, so each warm entry is journaled once (a
  /// later result-cache re-insert with a fresher TTL keeps its
  /// first-journaled TTL, which can only shorten its restored life —
  /// conservative by design).
  std::unordered_set<uint64_t> journaled_sweeps_;
  std::unordered_set<uint64_t> journaled_results_;
  WarmRestoreReport warm_report_;
  /// Periodic flusher thread (persist_flush_seconds); stopped first in the
  /// destructor, before either pool shuts down.
  std::thread flusher_;
  std::mutex flusher_mutex_;
  std::condition_variable flusher_cv_;
  bool flusher_stop_ = false;
  /// @}

  std::mutex stream_mutex_;
  std::vector<std::unique_ptr<EngineResult>> stream_results_;
  std::shared_ptr<CallState> stream_state_;
  Timer stream_timer_;  ///< restarted on the first Submit of a stream cycle
};

}  // namespace relcomp
