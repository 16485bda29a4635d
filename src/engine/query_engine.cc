#include "engine/query_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/fault_injection.h"
#include "common/format.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/wire.h"
#include "persist/journal.h"

namespace relcomp {

namespace {
/// Domain separator so the PrepareForNextQuery seed never equals the
/// Estimate seed for the same query.
constexpr uint64_t kPrepareSeedTag = 0x707265ULL;  // "pre"
/// Domain separator for per-source sweep seeds, so a sweep seed can never
/// alias an st/distance query seed structurally.
constexpr uint64_t kSweepSeedTag = 0x73776570ULL;  // "swep"

/// How long a cancellable waiter sleeps between token polls while blocked on
/// a flight. Purely a latency/CPU trade: the poll consumes no randomness and
/// a completed flight still wakes waiters via notify_all immediately.
constexpr std::chrono::milliseconds kCancelWaitSlice{5};

/// True when `status` is the deadline/cancellation family — the failures
/// that also count in engine_deadline_exceeded_total.
bool IsCancellation(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kCancelled;
}

/// Scoped pipeline-stage recorder: always lands the elapsed nanoseconds in
/// the stage histogram (when given), and additionally opens a matching span
/// when the query is traced — one timestamp pair feeds both, so the span
/// tree and the histogram never disagree about a stage's extent.
class StageTimer {
 public:
  StageTimer(obs::Histogram* histogram, obs::TraceBuffer* trace,
             obs::SpanKind kind, uint32_t parent, uint32_t detail = 0)
      : histogram_(histogram),
        trace_(trace),
        begin_ns_(StopwatchNs::Now()),
        span_(trace == nullptr
                  ? obs::TraceBuffer::kNone
                  : trace->BeginAt(kind, begin_ns_, parent, detail)) {}

  ~StageTimer() { Stop(); }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// Ends the stage early (idempotent; the destructor calls it).
  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    const uint64_t end_ns = StopwatchNs::Now();
    if (histogram_ != nullptr) histogram_->Record(end_ns - begin_ns_);
    if (trace_ != nullptr) trace_->EndAt(span_, end_ns);
  }

  /// Id for nesting children under this stage's span (kNone when untraced).
  uint32_t id() const { return span_; }

 private:
  obs::Histogram* histogram_;
  obs::TraceBuffer* trace_;
  uint64_t begin_ns_;
  uint32_t span_;
  bool stopped_ = false;
};

/// \name Warm-journal record payloads (see src/persist/README.md)
/// Records carry everything needed to re-derive the cache key on restore;
/// the restoring engine validates kind / budget / seed against *its own*
/// plans and skips mismatches, so a journal written under another
/// configuration (or another master seed) can never resurface a wrong
/// answer. Decoders return false on any truncation or shape violation.
/// @{
std::string EncodeSweepRecord(const SweepCacheExport& entry) {
  std::string out;
  WireWriter writer(&out);
  writer.PutU8(static_cast<uint8_t>(entry.key.kind));
  writer.PutU32(entry.key.source);
  writer.PutU32(entry.key.num_samples);
  writer.PutU64(entry.key.seed);
  // Sweep entries never expire. The TTL field stays in the record layout
  // (written as 0) so journals from any version of the engine replay.
  writer.PutF64(0.0);
  writer.PutU64(entry.sweep->size());
  for (const double v : *entry.sweep) writer.PutF64(v);
  return out;
}

/// A sweep record's TTL is read and validated but not applied: a restored
/// sweep is immortal like every other sweep-cache entry. Older journals may
/// carry a positive TTL; it only ever shortened an entry's life, and the
/// payload is content-derived, so serving it longer changes no answer.
bool DecodeSweepRecord(const std::string& payload, SweepCacheKey* key,
                       std::vector<double>* sweep) {
  WireReader reader(payload.data(), payload.size());
  uint8_t kind = 0;
  uint64_t n = 0;
  double ttl_seconds = 0.0;
  if (!reader.ReadU8(&kind) || !reader.ReadU32(&key->source) ||
      !reader.ReadU32(&key->num_samples) || !reader.ReadU64(&key->seed) ||
      !reader.ReadF64(&ttl_seconds) || !reader.ReadU64(&n)) {
    return false;
  }
  if (!std::isfinite(ttl_seconds) || ttl_seconds < 0.0) return false;
  key->kind = static_cast<EstimatorKind>(kind);
  if (n != reader.remaining() / sizeof(double) ||
      reader.remaining() % sizeof(double) != 0) {
    return false;
  }
  sweep->resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (!reader.ReadF64(&(*sweep)[i])) return false;
  }
  return true;
}

std::string EncodeResultRecord(const ResultCacheExport& entry) {
  std::string out;
  WireWriter writer(&out);
  const EngineQuery& q = entry.key.query;
  writer.PutU8(static_cast<uint8_t>(q.workload));
  writer.PutU32(q.source);
  writer.PutU32(q.target);
  writer.PutU32(q.k);
  writer.PutF64(q.eta);
  writer.PutU32(q.max_hops);
  writer.PutU8(static_cast<uint8_t>(entry.key.kind));
  writer.PutU32(entry.key.num_samples);
  writer.PutU64(entry.key.seed);
  writer.PutF64(entry.ttl_seconds);
  writer.PutF64(entry.value.reliability);
  writer.PutU32(entry.value.num_samples);
  writer.PutU64(entry.value.targets.size());
  for (const ReliableTarget& target : entry.value.targets) {
    writer.PutU32(target.node);
    writer.PutF64(target.reliability);
  }
  return out;
}

bool DecodeResultRecord(const std::string& payload, ResultCacheKey* key,
                        ResultCacheValue* value, double* ttl_seconds) {
  WireReader reader(payload.data(), payload.size());
  uint8_t workload = 0;
  uint8_t kind = 0;
  uint64_t num_targets = 0;
  if (!reader.ReadU8(&workload) || !reader.ReadU32(&key->query.source) ||
      !reader.ReadU32(&key->query.target) || !reader.ReadU32(&key->query.k) ||
      !reader.ReadF64(&key->query.eta) ||
      !reader.ReadU32(&key->query.max_hops) || !reader.ReadU8(&kind) ||
      !reader.ReadU32(&key->num_samples) || !reader.ReadU64(&key->seed) ||
      !reader.ReadF64(ttl_seconds) || !reader.ReadF64(&value->reliability) ||
      !reader.ReadU32(&value->num_samples) || !reader.ReadU64(&num_targets)) {
    return false;
  }
  if (workload >= kNumWorkloadKinds) return false;
  key->query.workload = static_cast<WorkloadKind>(workload);
  key->kind = static_cast<EstimatorKind>(kind);
  constexpr size_t kTargetBytes = sizeof(uint32_t) + sizeof(double);
  if (num_targets != reader.remaining() / kTargetBytes ||
      reader.remaining() % kTargetBytes != 0) {
    return false;
  }
  value->targets.resize(num_targets);
  for (uint64_t i = 0; i < num_targets; ++i) {
    if (!reader.ReadU32(&value->targets[i].node) ||
        !reader.ReadF64(&value->targets[i].reliability)) {
      return false;
    }
  }
  return true;
}
/// @}
}  // namespace

QueryEngine::QueryEngine(const UncertainGraph& graph, EngineOptions options,
                         std::unique_ptr<obs::MetricsRegistry> registry,
                         std::unique_ptr<PersistentStore> store,
                         std::vector<std::unique_ptr<Estimator>> replicas,
                         std::vector<CandidateReplicas> extra_replicas)
    : graph_(graph),
      options_(std::move(options)),
      registry_(std::move(registry)),
      tracer_(std::make_unique<obs::Tracer>(obs::TracerOptions{
          options_.trace_sample_rate, options_.slow_query_ms,
          options_.trace_ring_capacity})),
      store_(std::move(store)),
      replicas_(std::move(replicas)),
      extra_replicas_(std::move(extra_replicas)),
      stats_(registry_.get()) {
  sweep_capable_ = !replicas_.empty() && replicas_.front()->SupportsSourceSweep();
  for (const CandidateReplicas& candidate : extra_replicas_) {
    if (!candidate.replicas.empty() &&
        candidate.replicas.front()->SupportsSourceSweep()) {
      sweep_capable_ = true;
    }
  }
  stage_cache_probe_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "cache_probe");
  stage_prepare_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "prepare");
  stage_estimate_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "estimate");
  stage_stratum_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "stratum");
  stage_merge_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "merge");
  stage_publish_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "publish");
  stage_derive_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "derive");
  stage_sweep_wait_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "sweep_wait");
  if (options_.enable_cache) {
    cache_ = std::make_unique<ResultCache>(
        options_.cache_capacity, options_.cache_shards,
        options_.cache_max_bytes, registry_.get());
  }
  if (options_.enable_sweep_cache) {
    sweep_cache_ = std::make_unique<SweepCache>(options_.sweep_cache_max_bytes,
                                                registry_.get());
  }
  // Serving pool: exactly num_threads workers. replicas_ may hold more —
  // the tail replicas belong to the auxiliary refresh lane below.
  pool_ = std::make_unique<ThreadPool>(
      options_.num_threads, options_.queue_capacity,
      registry_->GetHistogram("engine_stage_latency_ns", "stage",
                              "queue_wait"));
  const size_t lane_width = RefreshLaneWidth();
  if (lane_width > 0) {
    aux_pool_ = std::make_unique<ThreadPool>(lane_width,
                                             options_.queue_capacity);
  }
  refresh_lane_depth_ = registry_->GetGauge("refresh_lane_depth");
  if (store_ != nullptr && options_.persist_flush_seconds > 0.0) {
    flusher_ = std::thread([this] { FlusherLoop(); });
  }
  // Storage-footprint gauges: actual resident bytes of the graph's selected
  // layout, labeled by layout so raw/compact engines are comparable side by
  // side in one exported snapshot.
  registry_->GetGauge("graph_memory_bytes")
      ->Set(static_cast<double>(graph_.MemoryBytes()));
  registry_
      ->GetGauge("graph_bytes_per_edge", "layout",
                 StorageLayoutName(graph_.layout()))
      ->Set(graph_.num_edges() == 0
                ? 0.0
                : static_cast<double>(graph_.MemoryBytes()) /
                      static_cast<double>(graph_.num_edges()));
}

QueryEngine::~QueryEngine() {
  if (flusher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(flusher_mutex_);
      flusher_stop_ = true;
    }
    flusher_cv_.notify_all();
    flusher_.join();
  }
  if (aux_pool_ != nullptr) aux_pool_->Shutdown();
  pool_->Shutdown();
  // Clean-shutdown flush: both pools are quiescent, so this captures the
  // final warm state (a crash instead simply loses what the last periodic
  // flush missed — never more).
  if (store_ != nullptr) (void)FlushWarmState();
}

Result<std::unique_ptr<QueryEngine>> QueryEngine::Create(
    const UncertainGraph& graph, const EngineOptions& options) {
  EngineOptions opts = options;
  if (opts.num_threads == 0) opts.num_threads = 1;
  if (opts.num_strata == 0) opts.num_strata = 1;
  if (opts.num_samples == 0) {
    return Status::InvalidArgument("EngineOptions::num_samples must be > 0");
  }
  if (opts.cache_ttl < 0.0 || opts.negative_cache_ttl < 0.0) {
    return Status::InvalidArgument("EngineOptions TTLs must be >= 0");
  }
  // The registry exists before anything else so the persistence tier's
  // recovery counters capture the snapshot restore that happens *before*
  // the engine object does.
  auto registry = std::make_unique<obs::MetricsRegistry>();
  std::unique_ptr<PersistentStore> store;
  bool snapshot_restored = false;
  if (!opts.persist_dir.empty()) {
    RELCOMP_ASSIGN_OR_RETURN(store,
                             PersistentStore::Open(opts.persist_dir,
                                                   registry.get()));
    // O(1) cold start: hand the factory the snapshot's artifacts so the
    // replica build below maps instead of rebuilding. An absent, corrupt,
    // version-refused, or mismatched snapshot leaves these null — the
    // factory then rebuilds from source, bit-identically.
    SnapshotArtifacts artifacts = store->OpenSnapshot(graph, opts.factory);
    if (artifacts.valid) {
      opts.factory.preloaded_bfs_index = std::move(artifacts.bfs_index);
      opts.factory.preloaded_prob_tree = std::move(artifacts.prob_tree);
      snapshot_restored = true;
    } else {
      store->CountRebuild();
    }
  }
  // The refresh lane (when engaged) gets its own replicas appended after
  // the serving set, so background refreshes never touch a serving
  // worker's replica. Index-carrying kinds still share one index.
  const size_t lane_width =
      opts.refresh_lane_threads > 0 &&
              (opts.max_stale_seconds > 0.0 || store != nullptr)
          ? opts.refresh_lane_threads
          : 0;
  const size_t replica_count = opts.num_threads + lane_width;
  // One shared immutable index for all replicas of an index-carrying kind
  // (built inside the factory), private scratch per replica.
  RELCOMP_ASSIGN_OR_RETURN(
      std::vector<std::unique_ptr<Estimator>> replicas,
      MakeEstimatorReplicas(opts.kind, graph, replica_count, opts.factory));
  // Routing candidates: the static kind plus plain MC — the cheap,
  // capability-complete baseline every backend is measured against (and the
  // enabler for workloads the static kind cannot answer). Each candidate
  // gets the same per-worker replica discipline as the primary set.
  std::vector<CandidateReplicas> extra;
  if (opts.enable_router && opts.kind != EstimatorKind::kMonteCarlo) {
    RELCOMP_ASSIGN_OR_RETURN(
        std::vector<std::unique_ptr<Estimator>> mc_replicas,
        MakeEstimatorReplicas(EstimatorKind::kMonteCarlo, graph,
                              replica_count, opts.factory));
    CandidateReplicas candidate;
    candidate.kind = EstimatorKind::kMonteCarlo;
    candidate.replicas = std::move(mc_replicas);
    extra.push_back(std::move(candidate));
  }
  // The preloaded artifacts were consumed by the replica build; the engine
  // keeps its options free of them (they pin the snapshot mapping).
  const bool auto_snapshot = opts.persist_auto_snapshot;
  const bool warm_restore = opts.warm_restore;
  opts.factory.preloaded_bfs_index.reset();
  opts.factory.preloaded_prob_tree.reset();
  std::unique_ptr<QueryEngine> engine(new QueryEngine(
      graph, std::move(opts), std::move(registry), std::move(store),
      std::move(replicas), std::move(extra)));
  RELCOMP_RETURN_NOT_OK(engine->InitRouter());
  if (engine->store_ != nullptr) {
    engine->warm_report_.snapshot_restored = snapshot_restored;
    if (!snapshot_restored && auto_snapshot) {
      // Best effort: a failed snapshot write (disk full, injected fault)
      // only costs the next restart its O(1) cold start.
      (void)engine->PersistSnapshot();
    }
    if (warm_restore) engine->RestoreWarmState();
  }
  return engine;
}

size_t QueryEngine::RefreshLaneWidth() const {
  // The lane exists only when there is background work to put on it —
  // stale-while-revalidate refreshes or journal flushes. Without either,
  // configurations are byte-for-byte the pre-lane engine.
  return options_.refresh_lane_threads > 0 &&
                 (options_.max_stale_seconds > 0.0 || store_ != nullptr)
             ? options_.refresh_lane_threads
             : 0;
}

Status QueryEngine::SubmitRefreshTask(ThreadPool::Task task) {
  if (aux_pool_ == nullptr) return pool_->TrySubmit(std::move(task));
  refresh_lane_depth_->Add(1.0);
  Status submitted = aux_pool_->TrySubmit(
      [this, task = std::move(task)](size_t lane_worker) {
        // Aux workers run on the appended replicas (never a serving one).
        task(options_.num_threads + lane_worker);
        refresh_lane_depth_->Add(-1.0);
      });
  if (!submitted.ok()) refresh_lane_depth_->Add(-1.0);
  return submitted;
}

void QueryEngine::FlusherLoop() {
  std::unique_lock<std::mutex> lock(flusher_mutex_);
  while (!flusher_stop_) {
    flusher_cv_.wait_for(
        lock, std::chrono::duration<double>(options_.persist_flush_seconds));
    if (flusher_stop_) break;
    lock.unlock();
    const Status lane = SubmitRefreshTask([this](size_t) {
      (void)FlushWarmState();
    });
    // Full lane: flush inline on this thread rather than skip the period
    // (the flusher is itself off the serving pool).
    if (!lane.ok()) (void)FlushWarmState();
    lock.lock();
  }
}

Status QueryEngine::PersistSnapshot() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition("persistence is not configured");
  }
  const BfsSharingIndex* bfs_index = nullptr;
  const ProbTreeIndex* prob_tree = nullptr;
  if (const auto* bfs =
          dynamic_cast<const BfsSharingEstimator*>(replicas_.front().get())) {
    bfs_index = bfs->shared_index().get();
  }
  if (const auto* pt =
          dynamic_cast<const ProbTreeEstimator*>(replicas_.front().get())) {
    prob_tree = pt->shared_index().get();
  }
  return store_->WriteSnapshot(graph_, options_.factory, bfs_index, prob_tree);
}

Status QueryEngine::FlushWarmState() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition("persistence is not configured");
  }
  std::lock_guard<std::mutex> lock(journal_mutex_);
  size_t appended = 0;
  if (sweep_cache_ != nullptr) {
    for (const SweepCacheExport& entry : sweep_cache_->ExportEntries()) {
      if (!journaled_sweeps_.insert(entry.key.Hash()).second) continue;
      RELCOMP_RETURN_NOT_OK(
          store_->AppendWarm(kJournalRecordSweep, EncodeSweepRecord(entry)));
      ++appended;
    }
  }
  if (cache_ != nullptr) {
    for (const ResultCacheExport& entry : cache_->ExportEntries()) {
      if (!journaled_results_.insert(entry.key.Hash()).second) continue;
      RELCOMP_RETURN_NOT_OK(
          store_->AppendWarm(kJournalRecordResult, EncodeResultRecord(entry)));
      ++appended;
    }
  }
  if (appended == 0) return Status::OK();
  return store_->SyncJournal();
}

void QueryEngine::RestoreWarmState() {
  warm_report_.attempted = true;
  Result<JournalReplay> replayed = store_->ReplayWarm();
  if (!replayed.ok()) return;  // unreadable journal: cold caches, not fatal
  const JournalReplay replay = replayed.MoveValue();
  warm_report_.torn_tail = replay.torn_tail;
  uint64_t recovered = 0;
  for (const JournalRecord& record : replay.records) {
    if (record.type == kJournalRecordSweep && sweep_cache_ != nullptr) {
      SweepCacheKey key;
      auto sweep = std::make_shared<std::vector<double>>();
      if (!DecodeSweepRecord(record.payload, &key, sweep.get()) ||
          key.source >= graph_.num_nodes() ||
          sweep->size() != graph_.num_nodes()) {
        ++warm_report_.skipped;
        continue;
      }
      // Re-derive the key this engine would use for the record's source: a
      // record journaled under another kind, budget, master seed, or plan
      // re-derives differently and is skipped — never served.
      const QueryPlan plan = SweepPlan(key.source);
      if (plan.kind != key.kind || plan.num_samples != key.num_samples ||
          SweepSeedForPlan(key.source, plan) != key.seed) {
        ++warm_report_.skipped;
        continue;
      }
      sweep_cache_->Insert(key, std::move(sweep));
      ++warm_report_.sweep_entries;
      ++recovered;
    } else if (record.type == kJournalRecordResult && cache_ != nullptr) {
      ResultCacheKey key;
      ResultCacheValue value;
      double ttl_seconds = 0.0;
      if (!DecodeResultRecord(record.payload, &key, &value, &ttl_seconds) ||
          !ValidateWorkload(graph_, key.query).ok()) {
        ++warm_report_.skipped;
        continue;
      }
      const QueryPlan plan = PlanFor(key.query);
      if (plan.kind != key.kind || plan.num_samples != key.num_samples ||
          SeedForPlan(key.query, plan) != key.seed) {
        ++warm_report_.skipped;
        continue;
      }
      cache_->Insert(key, value, ttl_seconds);
      ++warm_report_.result_entries;
      ++recovered;
    } else {
      ++warm_report_.skipped;
    }
  }
  if (recovered > 0) store_->CountJournalRecovered(recovered);
  // The restored state is folded back in; truncate so the next flush
  // re-journals it fresh (the journaled-key sets start empty, so the first
  // flush after restore rewrites every live entry).
  (void)store_->ResetJournal();
}

Status QueryEngine::InitRouter() {
  if (!options_.enable_router) return Status::OK();
  // Capabilities are probed from live replicas (worker 0 of each set), never
  // hard-coded per kind — a backend gaining a sweep core is picked up here
  // automatically.
  const auto probe = [](EstimatorKind kind, const Estimator& estimator) {
    BackendCapabilities caps;
    caps.kind = kind;
    caps.source_sweep = estimator.SupportsSourceSweep();
    caps.stratified_sweep = estimator.SupportsStratifiedSweep();
    caps.distance = estimator.SupportsDistanceConstrained();
    caps.hints = estimator.cost_hints();
    return caps;
  };
  std::vector<BackendCapabilities> candidates;
  candidates.push_back(probe(options_.kind, *replicas_.front()));
  for (const CandidateReplicas& extra : extra_replicas_) {
    candidates.push_back(probe(extra.kind, *extra.replicas.front()));
  }
  GraphFeatures features;
  features.num_nodes = graph_.num_nodes();
  features.num_edges = graph_.num_edges();
  features.avg_out_degree =
      features.num_nodes == 0
          ? 0.0
          : static_cast<double>(features.num_edges) /
                static_cast<double>(features.num_nodes);
  features.mean_edge_prob = graph_.ProbStats().mean;
  RouterModel model;
  if (!options_.router_profile_json.empty()) {
    RELCOMP_ASSIGN_OR_RETURN(
        model, RouterModel::FromJson(options_.router_profile_json));
  } else {
    model = RouterModel::Default(candidates, features, options_.router);
  }
  // eps(s) per node: the per-source reachability upper bound the budget
  // lever rests on (QueryFeatures::escape_prob). One pass over the edges.
  escape_prob_.assign(graph_.num_nodes(), 0.0);
  for (size_t v = 0; v < graph_.num_nodes(); ++v) {
    double survive = 1.0;
    for (const AdjEntry& entry : graph_.OutEdges(static_cast<NodeId>(v))) {
      survive *= 1.0 - entry.prob;
    }
    escape_prob_[v] = 1.0 - survive;
  }
  RouterStaticConfig static_config;
  static_config.kind = options_.kind;
  static_config.num_samples = options_.num_samples;
  static_config.num_strata = options_.num_strata;
  router_ = std::make_unique<EstimatorRouter>(
      std::move(model), options_.router, static_config, features,
      std::move(candidates), options_.num_threads, registry_.get());
  return Status::OK();
}

Estimator& QueryEngine::ReplicaFor(EstimatorKind kind, size_t worker_id) {
  if (kind == options_.kind) return *replicas_[worker_id];
  for (CandidateReplicas& candidate : extra_replicas_) {
    if (candidate.kind == kind) return *candidate.replicas[worker_id];
  }
  // Unreachable by construction: the router only decides kinds a replica
  // set was built for. Degrade to the primary set rather than crash.
  return *replicas_[worker_id];
}

uint64_t QueryEngine::QuerySeed(const EngineQuery& query) const {
  // Content-derived, not index-derived: the seed depends on what is asked,
  // never on when or where it runs. Repeats of a query inside one engine get
  // the same seed (and thus the same answer), which is exactly what makes a
  // cache hit — or a coalesced in-flight share — indistinguishable from a
  // recomputation.
  //
  // Sweep kinds deliberately coarsen "what is asked" to the source: top-k
  // and reliable-set answers are derived views of one per-source sweep, so
  // their seeds fold (source, kind, num_samples) but NOT k, eta, or the
  // workload tag. That is what lets top-k(s, 5), top-k(s, 10) and
  // reliable-set(s, eta) share one EstimateFromSource — and it keeps the
  // standalone-API equivalence exact, because the standalone helpers given
  // this seed run the identical sweep.
  return SeedForPlan(query, PlanFor(query));
}

uint64_t QueryEngine::SweepSeed(NodeId source) const {
  return SweepSeedForPlan(source, SweepPlan(source));
}

uint64_t QueryEngine::SeedForPlan(const EngineQuery& query,
                                  const QueryPlan& plan) const {
  // The plan's knobs fold in the exact positions the static knobs occupy in
  // the pre-router derivation, so enable_router == false (where plan echoes
  // the static knobs and the num_strata fold is skipped) reproduces the
  // historical seeds byte-for-byte. With the router on, num_strata folds
  // too: it is part of the sampling plan for stratified kinds, and two plans
  // differing only in S must never share a seed (or a cache key).
  if (IsSweepWorkload(query.workload)) {
    return SweepSeedForPlan(query.source, plan);
  }
  uint64_t seed = HashWorkloadQuery(options_.seed, query);
  seed = HashCombineSeed(seed, static_cast<uint64_t>(plan.kind));
  seed = HashCombineSeed(seed, plan.num_samples);
  if (router_ != nullptr) seed = HashCombineSeed(seed, plan.num_strata);
  return seed;
}

uint64_t QueryEngine::SweepSeedForPlan(NodeId source,
                                       const QueryPlan& plan) const {
  uint64_t seed = HashCombineSeed(options_.seed, kSweepSeedTag);
  seed = HashCombineSeed(seed, source);
  seed = HashCombineSeed(seed, static_cast<uint64_t>(plan.kind));
  seed = HashCombineSeed(seed, plan.num_samples);
  if (router_ != nullptr) seed = HashCombineSeed(seed, plan.num_strata);
  return seed;
}

uint64_t QueryEngine::PrepareSeed(const EngineQuery& query) const {
  return HashCombineSeed(QuerySeed(query), kPrepareSeedTag);
}

QueryPlan QueryEngine::PlanFor(const EngineQuery& query) const {
  // Sweep kinds take their source's plan — one plan per source whatever the
  // k / eta / workload tag, mirroring the sweep-seed coarsening that makes
  // sweep sharing possible.
  if (IsSweepWorkload(query.workload)) return SweepPlan(query.source);
  if (router_ == nullptr) {
    QueryPlan plan;
    plan.kind = options_.kind;
    plan.num_samples = options_.num_samples;
    plan.num_strata = options_.num_strata;
    return plan;
  }
  QueryFeatures features;
  features.workload = query.workload;
  features.out_degree = static_cast<uint32_t>(graph_.OutDegree(query.source));
  features.escape_prob = escape_prob_[query.source];
  features.param =
      query.workload == WorkloadKind::kDistance ? query.max_hops : 0;
  return router_->Decide(features);
}

QueryPlan QueryEngine::SweepPlan(NodeId source) const {
  if (router_ == nullptr) {
    QueryPlan plan;
    plan.kind = options_.kind;
    plan.num_samples = options_.num_samples;
    plan.num_strata = options_.num_strata;
    return plan;
  }
  QueryFeatures features;
  // Any sweep workload tag: the router quantizes every sweep kind onto one
  // plan bucket per source (param ignored), the sweep-sharing contract.
  features.workload = WorkloadKind::kTopK;
  features.out_degree = static_cast<uint32_t>(graph_.OutDegree(source));
  features.escape_prob = escape_prob_[source];
  features.param = 0;
  return router_->Decide(features);
}

EngineStatsSnapshot QueryEngine::StatsSnapshot() const {
  EngineStatsSnapshot snapshot =
      stats_.Snapshot(cache_.get(), sweep_cache_.get());
  snapshot.index_memory = IndexMemory();
  if (router_ != nullptr) {
    snapshot.router_decisions = router_->decisions();
    snapshot.router_fallbacks = router_->fallbacks();
  }
  return snapshot;
}

IndexMemoryReport QueryEngine::IndexMemory() const {
  return ReportIndexMemory(replicas_);
}

void QueryEngine::AwaitCall(CallState& state) {
  std::unique_lock<std::mutex> lock(state.mutex);
  state.done.wait(lock, [&state] { return state.pending == 0; });
}

void QueryEngine::FillFromValue(ResultCacheValue value, EngineResult* slot) {
  slot->status = std::move(value.status);
  if (slot->status.ok()) {
    slot->reliability = value.reliability;
    slot->num_samples = value.num_samples;
    slot->targets = std::move(value.targets);
  }
}

bool QueryEngine::TryServeWithoutCompute(
    const ResultCacheKey& key, EngineResult* slot,
    std::shared_ptr<InFlight>* leader_flight, const CancelToken* cancel,
    obs::TraceBuffer* trace, uint32_t parent) {
  // Fast path: lock-free-ish cache probe before touching the flight table.
  // Deliberately NOT gated on the cancel token: a cache hit costs O(1) and
  // an already-computed answer is strictly more useful than a deadline
  // error, even to a late caller.
  if (cache_ != nullptr) {
    std::optional<ResultCacheValue> hit;
    bool stale = false;
    bool refresh_owner = false;
    {
      StageTimer probe(stage_cache_probe_, trace, obs::SpanKind::kCacheProbe,
                       parent, /*detail=*/0);
      if (options_.max_stale_seconds > 0.0) {
        StaleLookupResult swr =
            cache_->LookupStale(key, options_.max_stale_seconds);
        hit = std::move(swr.value);
        stale = swr.stale;
        refresh_owner = swr.refresh_owner;
      } else {
        hit = cache_->Lookup(key);
      }
    }
    if (hit) {
      const bool negative = hit->negative();
      FillFromValue(std::move(*hit), slot);
      slot->seconds = 0.0;
      slot->cache_hit = true;
      slot->served_stale = stale;
      if (negative) {
        // Failure backoff: the cached error is served without recomputing.
        // Counted as a failure (and as a cache negative_hit), never as a
        // cache hit — executed + coalesced + failures + cache.hits must
        // still equal queries.
        stats_.RecordFailure(0.0);
      } else {
        stats_.RecordCacheHit();
        if (stale) stats_.RecordStaleServed();
      }
      if (refresh_owner) ScheduleResultRefresh(key);
      return true;
    }
  }
  if (!options_.enable_coalescing) return false;

  std::shared_ptr<InFlight> flight;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    // Re-check the cache under the flight lock: a leader publishes to the
    // cache *before* retiring its flight entry, so this double-check makes
    // "N concurrent identical misses -> 1 estimator invocation" exact
    // rather than best-effort (no window where neither table covers a key).
    // Uncounted probe (the user-level lookup was already recorded above, as
    // a miss) — and accounted as *coalesced*, not a cache hit: the leader
    // finished between our fast-path miss and taking the flight lock, so
    // this query shared a twin's computation, and counting it as a hit
    // would contradict the miss already in the cache stats
    // (executed + coalesced + failures + cache.hits must equal queries).
    if (cache_ != nullptr) {
      if (std::optional<ResultCacheValue> hit =
              cache_->Lookup(key, /*record_stats=*/false)) {
        const bool negative = hit->negative();
        FillFromValue(std::move(*hit), slot);
        slot->seconds = 0.0;
        slot->coalesced = true;
        if (negative) {
          stats_.RecordFailure(0.0);
        } else {
          stats_.RecordCoalesced(0.0);
        }
        return true;
      }
    }
    auto [it, inserted] = inflight_.try_emplace(key);
    if (inserted) {
      it->second = std::make_shared<InFlight>();
      *leader_flight = it->second;
      return false;  // we are the leader; compute and FinishFlight
    }
    flight = it->second;
  }

  // Follower: wait for the leader (always actively computing on another
  // worker — entries only exist while a leader runs, so this cannot
  // deadlock) and copy its outcome. A follower carrying a cancel token
  // polls it between wait slices: on expiry it stops waiting and fails with
  // the token's status — the leader's flight is untouched and completes
  // normally for everyone else.
  Timer wait_timer;
  bool expired = false;
  {
    obs::ScopedSpan wait_span(trace, obs::SpanKind::kCoalescedWait, parent);
    std::unique_lock<std::mutex> lock(flight->mutex);
    if (cancel == nullptr) {
      flight->done.wait(lock, [&flight] { return flight->ready; });
    } else {
      while (!flight->ready) {
        if (cancel->Cancelled()) {
          expired = true;
          break;
        }
        flight->done.wait_for(lock, kCancelWaitSlice,
                              [&flight] { return flight->ready; });
      }
    }
    if (!expired) FillFromValue(flight->value, slot);
  }
  slot->seconds = wait_timer.ElapsedSeconds();
  if (expired) {
    // Not coalesced: this query shared nothing — it gave up. Transient
    // status, so nothing here is negative-cached (the leader's own publish
    // is independent and unaffected).
    slot->status = cancel->ToStatus();
    stats_.RecordFailure(slot->seconds);
    stats_.RecordDeadlineExceeded();
    return true;
  }
  slot->coalesced = true;
  if (slot->status.ok()) {
    stats_.RecordCoalesced(slot->seconds);
  } else {
    stats_.RecordFailure(slot->seconds);
    // The leader's deadline expired before computing: its waiters failed on
    // the same deadline, and the classifier must agree with theirs.
    if (IsCancellation(slot->status)) stats_.RecordDeadlineExceeded();
  }
  return true;
}

void QueryEngine::PublishToCache(const ResultCacheKey& key,
                                 const ResultCacheValue& value) {
  if (cache_ == nullptr) return;
  if (value.status.ok()) {
    cache_->Insert(key, value, options_.cache_ttl);
  } else if (options_.negative_cache_ttl > 0.0 &&
             !IsTransientStatusCode(value.status.code())) {
    // Transient outcomes (deadline exceeded, cancelled, shed) describe the
    // submission, not the answer — caching them would fail future queries
    // that carry no deadline at all. Only genuine per-query failures
    // (invalid argument, not supported, internal) are negative-cached.
    // Negative caching: keep only the status (the payload is meaningless),
    // under the short backoff TTL so the key retries after it elapses.
    ResultCacheValue negative;
    negative.status = value.status;
    cache_->Insert(key, negative, options_.negative_cache_ttl);
  }
}

void QueryEngine::FinishFlight(const ResultCacheKey& key,
                               const std::shared_ptr<InFlight>& flight,
                               const ResultCacheValue& value) {
  // Publish order matters: cache first, then retire the flight entry, then
  // wake the waiters. A concurrent miss thus always finds the key in the
  // cache or the flight table (never neither).
  PublishToCache(key, value);
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.erase(key);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    flight->value = value;
    flight->ready = true;
  }
  flight->done.notify_all();
}

Result<QueryEngine::SweepShare> QueryEngine::ComputeSweepSerial(
    size_t worker_id, const EngineQuery& query, const QueryPlan& plan,
    uint64_t sweep_seed, const SweepCacheKey& key, const CancelToken* cancel,
    obs::TraceBuffer* trace, uint32_t parent) {
  // Coalescing-off path: one worker runs the whole stratified sweep
  // back-to-back. EstimateFromSource with the plan's num_strata merges
  // strata in index order — the exact merge the stratum scheduler replays —
  // so serial and stolen-strata execution are bit-identical.
  Estimator& estimator = ReplicaFor(plan.kind, worker_id);
  MemoryTracker tracker;
  Timer timer;
  stats_.RecordSweepExecuted();
  FaultInjector& injector = FaultInjector::Global();
  if (injector.enabled()) {
    injector.MaybeDelay(sweep_seed);
    RELCOMP_RETURN_NOT_OK(injector.MaybeFail(FaultSite::kEstimatorFailure,
                                             sweep_seed, "serial sweep"));
  }
  {
    StageTimer prepare(stage_prepare_, trace, obs::SpanKind::kPrepare, parent);
    RELCOMP_RETURN_NOT_OK(estimator.PrepareForNextQuery(
        HashCombineSeed(sweep_seed, kPrepareSeedTag)));
  }
  EstimateOptions estimate_options;
  estimate_options.num_samples = plan.num_samples;
  estimate_options.seed = sweep_seed;
  estimate_options.num_strata = plan.num_strata;
  estimate_options.memory = &tracker;
  estimate_options.cancel = cancel;
  estimate_options.trace = trace;
  estimate_options.trace_parent = parent;
  RELCOMP_ASSIGN_OR_RETURN(
      std::vector<double> swept,
      estimator.EstimateFromSource(query.source, estimate_options));
  auto vector = std::make_shared<const std::vector<double>>(std::move(swept));
  if (sweep_cache_ != nullptr) sweep_cache_->Insert(key, vector);
  stats_.RecordSweepLatency(timer.ElapsedSeconds());
  SweepShare share;
  share.vector = std::move(vector);
  share.peak_memory_bytes = tracker.peak_bytes();
  return share;
}

Status QueryEngine::RunSweepFlight(size_t worker_id, NodeId source,
                                   const QueryPlan& plan, uint64_t sweep_seed,
                                   const SweepCacheKey& key,
                                   const std::shared_ptr<SweepFlight>& flight,
                                   bool leader, const CancelToken* cancel,
                                   obs::TraceBuffer* trace, uint32_t parent) {
  Estimator& estimator = ReplicaFor(plan.kind, worker_id);
  FaultInjector& injector = FaultInjector::Global();
  MemoryTracker tracker;
  bool prepared = false;
  bool abandoned = false;
  // Claim loop: leader and coalesced joiners alike pull unclaimed strata off
  // the shared work-list. Each stratum is a pure function of (sweep seed,
  // stratum index, S), so it does not matter who runs what.
  for (;;) {
    uint32_t stratum = 0;
    {
      std::lock_guard<std::mutex> lock(flight->mutex);
      if (cancel != nullptr && cancel->Cancelled() && flight->status.ok() &&
          !flight->ready) {
        // This participant's deadline fired mid-flight. If it is the only
        // participant and strata remain unclaimed, nobody else will drain
        // the flight: fail it as a unit (first failure wins; joiners get the
        // transient status and recompute deterministically later). If other
        // participants are active — or every stratum is already claimed —
        // the flight can finish without us: abandon it, leaving its state
        // untouched, and fail only this query.
        if (flight->active == 0 && flight->next_stratum < flight->num_strata) {
          flight->status = cancel->ToStatus();
        } else {
          abandoned = true;
        }
        break;
      }
      if (!flight->status.ok() ||
          flight->next_stratum >= flight->num_strata) {
        break;
      }
      stratum = flight->next_stratum++;
      ++flight->active;
    }
    Status run = Status::OK();
    if (injector.enabled()) {
      // Content-derived injection key: the stratum's own seed, identical at
      // any thread count and for any claimant, so the set of injected
      // strata is deterministic per plan.
      const uint64_t stratum_key =
          StratumSeed(sweep_seed, stratum, flight->num_strata);
      injector.MaybeDelay(stratum_key);
      run = injector.MaybeFail(FaultSite::kEstimatorFailure, stratum_key,
                               "sweep stratum");
    }
    if (run.ok() && !prepared) {
      // H(sweep_seed, tag) == PrepareSeed(q) for every sweep-kind q over
      // this source. Every participant ends up reading bit-identical
      // worlds: the first preparer pays the full prepare and publishes a
      // read-only snapshot; later thieves adopt that snapshot in O(1)
      // instead of re-running the same O(L·m) resample per worker
      // (estimators without shared prepared state — MC, whose prepare is a
      // no-op — just prepare directly).
      StageTimer prepare_stage(stage_prepare_, trace, obs::SpanKind::kPrepare,
                               parent);
      std::shared_ptr<const PreparedGeneration> shared_state;
      {
        std::lock_guard<std::mutex> lock(flight->mutex);
        shared_state = flight->prepared_state;
      }
      if (shared_state != nullptr) {
        run = estimator.AdoptSharedPreparedState(std::move(shared_state));
        if (!run.ok()) {
          // Adoption refused (shape mismatch — cannot happen for replicas
          // of this engine): the inline prepare is bit-identical anyway.
          run = estimator.PrepareForNextQuery(
              HashCombineSeed(sweep_seed, kPrepareSeedTag));
        }
      } else {
        run = estimator.PrepareForNextQuery(
            HashCombineSeed(sweep_seed, kPrepareSeedTag));
        if (run.ok() && estimator.SupportsSharedPreparedState()) {
          Result<std::shared_ptr<const PreparedGeneration>> snapshot =
              estimator.ShareCurrentPreparedState();
          if (snapshot.ok()) {
            std::lock_guard<std::mutex> lock(flight->mutex);
            if (flight->prepared_state == nullptr) {
              flight->prepared_state = snapshot.MoveValue();
            }
          }
        }
      }
      prepared = run.ok();
    }
    std::vector<uint32_t> hits;
    std::shared_ptr<const std::vector<double>> whole;
    if (run.ok()) {
      StageTimer stratum_stage(stage_stratum_, trace, obs::SpanKind::kStratum,
                               parent, stratum);
      EstimateOptions estimate_options;
      estimate_options.num_samples = flight->num_samples;
      estimate_options.seed = sweep_seed;
      estimate_options.num_strata = flight->num_strata;
      estimate_options.memory = &tracker;
      estimate_options.cancel = cancel;
      estimate_options.trace = trace;
      estimate_options.trace_parent = stratum_stage.id();
      if (flight->whole_sweep) {
        // No stratified core: the single "stratum" is the whole sweep.
        Result<std::vector<double>> swept =
            estimator.EstimateFromSource(source, estimate_options);
        if (swept.ok()) {
          whole =
              std::make_shared<const std::vector<double>>(swept.MoveValue());
        } else {
          run = swept.status();
        }
      } else {
        Result<std::vector<uint32_t>> stratum_hits =
            estimator.EstimateSweepStratumHits(
                source, stratum, flight->num_strata, estimate_options);
        if (stratum_hits.ok()) {
          hits = stratum_hits.MoveValue();
        } else {
          run = stratum_hits.status();
        }
      }
    }
    stats_.RecordStratum(/*stolen=*/!leader);
    {
      std::lock_guard<std::mutex> lock(flight->mutex);
      --flight->active;
      ++flight->completed;
      if (run.ok()) {
        if (flight->whole_sweep) {
          flight->whole = std::move(whole);
        } else {
          flight->stratum_hits[stratum] = std::move(hits);
        }
        if (tracker.peak_bytes() > flight->peak_memory_bytes) {
          flight->peak_memory_bytes = tracker.peak_bytes();
        }
      } else if (flight->status.ok()) {
        // First failure wins; it also stops further claims, so the flight
        // drains to a deterministic failure for every participant.
        flight->status = run;
      }
    }
    if (!run.ok()) break;
  }

  if (abandoned) {
    // The flight can drain without us (someone else is active, or every
    // stratum is claimed): leave it untouched — its eventual finalizer
    // publishes for the remaining participants — and fail only this query.
    // Deliberately skips the finalize check below: an abandoning
    // participant taking the finalizing token and then returning would
    // strand the real participants waiting forever.
    return cancel->ToStatus();
  }

  // Whoever observes the flight drained — all strata deposited, or failed
  // with no stratum still in execution — finalizes: merges, publishes, and
  // wakes everyone. That may be the leader or any thief; the merge itself is
  // order-fixed, so the finalizer's identity is invisible in the result.
  std::shared_ptr<const std::vector<double>> vector;
  Status status;
  bool finalize = false;
  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    const bool drained =
        flight->active == 0 &&
        (!flight->status.ok() || flight->completed == flight->num_strata);
    if (drained && !flight->ready && !flight->finalizing) {
      flight->finalizing = true;
      finalize = true;
      status = flight->status;
      if (status.ok()) {
        if (flight->whole_sweep) {
          vector = flight->whole;
        } else {
          // Deterministic merge in stratum order: per-node hit totals over
          // the fixed stratum slices, divided by the full budget K —
          // bit-identical to the serial stratified sweep regardless of
          // which workers ran which strata.
          StageTimer merge_stage(stage_merge_, trace, obs::SpanKind::kMerge,
                                 parent);
          auto merged =
              std::make_shared<std::vector<double>>(graph_.num_nodes(), 0.0);
          std::vector<uint32_t> totals(graph_.num_nodes(), 0);
          for (const std::vector<uint32_t>& stratum_hits :
               flight->stratum_hits) {
            for (size_t v = 0; v < stratum_hits.size(); ++v) {
              totals[v] += stratum_hits[v];
            }
          }
          const double k = static_cast<double>(flight->num_samples);
          for (size_t v = 0; v < totals.size(); ++v) {
            (*merged)[v] = static_cast<double>(totals[v]) / k;
          }
          vector = std::move(merged);
        }
      }
    }
  }
  if (finalize) {
    // Publish order: SweepCache first, then retire the flight entry, then
    // set ready and wake — a concurrent miss always finds the key in the
    // cache or the flight table, never neither.
    if (status.ok() && sweep_cache_ != nullptr) {
      sweep_cache_->Insert(key, vector);
    }
    {
      std::lock_guard<std::mutex> lock(sweep_inflight_mutex_);
      sweep_inflight_.erase(key);
    }
    stats_.RecordSweepLatency(flight->timer.ElapsedSeconds());
    {
      std::lock_guard<std::mutex> lock(flight->mutex);
      flight->vector = std::move(vector);
      flight->ready = true;
    }
    flight->done.notify_all();
    return Status::OK();
  }
  // Not the finalizer: some other participant is still executing a stratum
  // (or merging); wait for the publish. This terminates — the flight always
  // has at least one active participant until ready. A participant carrying
  // a cancel token polls it between wait slices and abandons the flight on
  // expiry (same contract as above: the flight itself is untouched).
  StageTimer wait_stage(stage_sweep_wait_, trace, obs::SpanKind::kSweepWait,
                        parent);
  std::unique_lock<std::mutex> lock(flight->mutex);
  if (cancel == nullptr) {
    flight->done.wait(lock, [&flight] { return flight->ready; });
  } else {
    while (!flight->ready) {
      if (cancel->Cancelled()) return cancel->ToStatus();
      flight->done.wait_for(lock, kCancelWaitSlice,
                            [&flight] { return flight->ready; });
    }
  }
  return Status::OK();
}

std::shared_ptr<QueryEngine::SweepFlight> QueryEngine::JoinOrCreateSweepFlight(
    size_t worker_id, const QueryPlan& plan, const SweepCacheKey& key,
    bool* leader, std::shared_ptr<const std::vector<double>>* cached) {
  *leader = false;
  cached->reset();
  std::lock_guard<std::mutex> lock(sweep_inflight_mutex_);
  // Double-check under the flight lock (same protocol as the query-level
  // rendezvous): a sweep's finalizer publishes to the SweepCache *before*
  // retiring its flight entry, so with the sweep cache on a concurrent
  // miss always finds the key in the cache or the flight table — never
  // neither — making "N concurrent same-source misses -> 1 sweep" exact.
  // With the sweep cache off (or an oversized sweep rejected by it) there
  // is no memory of finished sweeps, and flights only collapse
  // *overlapping* twins — same best-effort caveat as query-level
  // coalescing without the result cache. Uncounted probe (callers decide
  // how to account it).
  if (sweep_cache_ != nullptr) {
    if (std::shared_ptr<const std::vector<double>> vector =
            sweep_cache_->Lookup(key, /*record_stats=*/false)) {
      *cached = std::move(vector);
      return nullptr;
    }
  }
  auto [it, inserted] = sweep_inflight_.try_emplace(key);
  if (inserted) {
    it->second = std::make_shared<SweepFlight>();
    *leader = true;
    SweepFlight& fresh = *it->second;
    const bool stratified =
        ReplicaFor(plan.kind, worker_id).SupportsStratifiedSweep();
    fresh.num_strata = stratified ? plan.num_strata : 1;
    fresh.num_samples = plan.num_samples;
    fresh.whole_sweep = !stratified;
    fresh.stratum_hits.resize(fresh.num_strata);
    fresh.timer.Restart();
  }
  return it->second;
}

Result<QueryEngine::SweepShare> QueryEngine::GetSweepVector(
    size_t worker_id, const EngineQuery& query, const QueryPlan& plan,
    uint64_t sweep_seed, const CancelToken* cancel, obs::TraceBuffer* trace,
    uint32_t parent) {
  const SweepCacheKey key{plan.kind, query.source, plan.num_samples,
                          sweep_seed};
  // Fast path: memoized sweep.
  if (sweep_cache_ != nullptr) {
    std::shared_ptr<const std::vector<double>> vector;
    {
      StageTimer probe_stage(stage_cache_probe_, trace,
                             obs::SpanKind::kCacheProbe, parent, /*detail=*/1);
      vector = sweep_cache_->Lookup(key);
    }
    if (vector != nullptr) {
      stats_.RecordSweepHit();
      return SweepShare{std::move(vector), 0};
    }
  }
  if (!options_.enable_coalescing) {
    return ComputeSweepSerial(worker_id, query, plan, sweep_seed, key, cancel,
                              trace, parent);
  }
  bool leader = false;
  std::shared_ptr<const std::vector<double>> cached;
  std::shared_ptr<SweepFlight> flight =
      JoinOrCreateSweepFlight(worker_id, plan, key, &leader, &cached);
  if (flight == nullptr) {
    // The sweep finished between our fast-path miss and taking the flight
    // lock: this query shared its work (accounted as sweep_coalesced, not a
    // hit — the fast-path miss is already in the cache stats).
    stats_.RecordSweepCoalesced();
    return SweepShare{std::move(cached), 0};
  }
  // One sweep_executed per sweep, recorded by its leader: the "<= 1
  // EstimateFromSource per distinct (source, generation)" gate currency.
  if (leader) stats_.RecordSweepExecuted();
  {
    obs::ScopedSpan flight_span(trace, obs::SpanKind::kSweepFlight, parent,
                                leader ? 1 : 0);
    const Status flight_status =
        RunSweepFlight(worker_id, query.source, plan, sweep_seed, key, flight,
                       leader, cancel, trace, flight_span.id());
    // Abandoned mid-flight (deadline): the flight publishes without us; do
    // not read its fields — fail this query with the transient status.
    if (!flight_status.ok()) return flight_status;
  }

  Status status;
  std::shared_ptr<const std::vector<double>> vector;
  size_t peak = 0;
  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    status = flight->status;
    vector = flight->vector;
    // Every participant derived from this sweep: attribute its working-set
    // peak to each of them.
    peak = flight->peak_memory_bytes;
  }
  if (!status.ok()) return status;
  if (!leader) {
    // A joiner — whether it stole strata or only waited — shared the
    // leader's sweep instead of running its own.
    stats_.RecordSweepCoalesced();
  }
  return SweepShare{std::move(vector), peak};
}

Result<WorkloadResult> QueryEngine::ComputeWorkload(
    size_t worker_id, const EngineQuery& query, const QueryPlan& plan,
    uint64_t query_seed, const CancelToken* cancel, obs::TraceBuffer* trace,
    uint32_t parent) {
  Estimator& estimator = ReplicaFor(plan.kind, worker_id);
  if (IsSweepWorkload(query.workload) && estimator.SupportsSourceSweep()) {
    // Sweep sharing: obtain the per-source vector once (memoized, coalesced,
    // or computed) and derive this query's view of it. Bit-identical to a
    // direct dispatch because the seed is the same sweep seed either way.
    RELCOMP_ASSIGN_OR_RETURN(
        SweepShare share, GetSweepVector(worker_id, query, plan, query_seed,
                                         cancel, trace, parent));
    StageTimer derive_stage(stage_derive_, trace, obs::SpanKind::kDerive,
                            parent);
    WorkloadResult derived =
        DeriveFromSweep(query, *share.vector, plan.num_samples);
    if (share.peak_memory_bytes > derived.peak_memory_bytes) {
      derived.peak_memory_bytes = share.peak_memory_bytes;
    }
    return derived;
  }
  FaultInjector& injector = FaultInjector::Global();
  if (injector.enabled()) {
    // Content-derived key (the query seed): the set of injected queries is
    // the same at every thread count, so chaos runs are comparable.
    injector.MaybeDelay(query_seed);
    RELCOMP_RETURN_NOT_OK(injector.MaybeFail(FaultSite::kEstimatorFailure,
                                             query_seed, "estimate"));
  }
  {
    StageTimer prepare_stage(stage_prepare_, trace, obs::SpanKind::kPrepare,
                             parent);
    RELCOMP_RETURN_NOT_OK(estimator.PrepareForNextQuery(
        HashCombineSeed(query_seed, kPrepareSeedTag)));
  }
  EstimateOptions estimate_options;
  estimate_options.num_samples = plan.num_samples;
  estimate_options.seed = query_seed;
  // Stratified partitioning applies to every kind with a stratified core:
  // s-t MC estimates split their budget the same canonical way sweeps do
  // (estimators without one ignore the knob).
  estimate_options.num_strata = plan.num_strata;
  estimate_options.cancel = cancel;
  StageTimer estimate_stage(stage_estimate_, trace, obs::SpanKind::kEstimate,
                            parent);
  estimate_options.trace = trace;
  estimate_options.trace_parent = estimate_stage.id();
  return DispatchWorkload(estimator, query, estimate_options);
}

void QueryEngine::RunOne(size_t worker_id, const EngineQuery& query,
                         EngineResult* slot, uint64_t enqueue_ns) {
  // Tracing: a stack-allocated span collector, armed only when the tracer is
  // engaged — an untraced query allocates nothing and every span call below
  // no-ops on the null buffer. The root opens at the Submit-time stamp, so
  // it covers the queue wait the worker never saw.
  obs::TraceBuffer buffer;
  obs::TraceBuffer* trace = nullptr;
  uint32_t root = obs::TraceBuffer::kNone;
  if (tracer_->engaged()) {
    trace = &buffer;
    buffer.Start(tracer_->NextQueryId(), static_cast<uint32_t>(worker_id));
    root = buffer.BeginAt(obs::SpanKind::kQuery, enqueue_ns,
                          obs::TraceBuffer::kNone,
                          static_cast<uint32_t>(query.workload));
    // The wait is already over (we are running); the span just records it.
    buffer.End(buffer.BeginAt(obs::SpanKind::kQueueWait, enqueue_ns, root));
  }

  const QueryPlan plan = PlanFor(query);
  const uint64_t query_seed = SeedForPlan(query, plan);
  slot->query = query;
  slot->seed = query_seed;
  slot->plan = plan;
  stats_.RecordWorkload(query.workload);

  // Deadline: per-query override, else the engine default; 0 = none. The
  // clock starts at Submit time (enqueue_ns), so queue wait counts against
  // the budget — a query that starved in the queue is already expired when
  // its worker picks it up. The token chains to any caller-provided handle,
  // so either source of cancellation trips it.
  const double deadline_ms =
      query.deadline_ms > 0.0 ? query.deadline_ms : options_.default_deadline_ms;
  const CancelToken token(
      deadline_ms > 0.0
          ? enqueue_ns + static_cast<uint64_t>(deadline_ms * 1e6)
          : 0,
      query.cancel);
  const CancelToken* cancel =
      (deadline_ms > 0.0 || query.cancel != nullptr) ? &token : nullptr;

  const ResultCacheKey key{query, plan.kind, plan.num_samples, query_seed};
  std::shared_ptr<InFlight> flight;
  if (TryServeWithoutCompute(key, slot, &flight, cancel, trace, root)) {
    if (trace != nullptr) {
      buffer.End(root);
      tracer_->Finish(buffer);
    }
    return;
  }

  // Pre-compute deadline check: the query may have expired while it queued
  // (or the caller cancelled before we got here). Fail it before burning an
  // estimator on an answer nobody wants. A leader slot still retires its
  // flight entry so waiters drain with the same transient status; the
  // transient code keeps it out of the negative cache.
  if (cancel != nullptr && cancel->Cancelled()) {
    ResultCacheValue expired_value;
    expired_value.status = cancel->ToStatus();
    slot->status = expired_value.status;
    slot->seconds = 0.0;
    stats_.RecordFailure(0.0);
    stats_.RecordDeadlineExceeded();
    if (flight != nullptr) FinishFlight(key, flight, expired_value);
    if (trace != nullptr) {
      buffer.End(root);
      tracer_->Finish(buffer);
    }
    return;
  }

  // Leader (or coalescing disabled): compute on this worker's replica.
  Timer timer;
  ResultCacheValue value;
  Result<WorkloadResult> result =
      ComputeWorkload(worker_id, query, plan, query_seed, cancel, trace, root);
  if (result.ok()) {
    value.reliability = result->reliability;
    value.num_samples = result->num_samples;
    value.targets = std::move(result->targets);
    slot->reliability = value.reliability;
    slot->num_samples = value.num_samples;
    slot->targets = value.targets;
    slot->seconds = timer.ElapsedSeconds();
    stats_.RecordExecuted(slot->seconds, result->peak_memory_bytes);
    // Feed the fallback gate: one observation per estimator-executed routed
    // query (cache hits and coalesced waiters observed someone else's
    // latency and were filtered out above).
    if (router_ != nullptr) router_->RecordObserved(plan, slot->seconds);
  } else {
    value.status = result.status();
    slot->status = result.status();
    slot->seconds = timer.ElapsedSeconds();
    stats_.RecordFailure(slot->seconds);
    if (IsCancellation(slot->status)) stats_.RecordDeadlineExceeded();
  }
  {
    StageTimer publish_stage(stage_publish_, trace, obs::SpanKind::kPublish,
                             root);
    if (flight != nullptr) {
      FinishFlight(key, flight, value);
    } else {
      PublishToCache(key, value);
    }
  }
  if (trace != nullptr) {
    buffer.End(root);
    tracer_->Finish(buffer);
  }
}

Result<std::vector<EngineResult>> QueryEngine::RunBatch(
    const std::vector<EngineQuery>& queries) {
  for (size_t i = 0; i < queries.size(); ++i) {
    const Status valid = ValidateWorkload(graph_, queries[i]);
    if (!valid.ok()) {
      return Status::InvalidArgument(
          StrFormat("query %zu: %s", i, valid.message().c_str()));
    }
  }
  stats_.MarkCallStart();
  auto state = std::make_shared<CallState>();
  state->pending = queries.size();
  std::vector<EngineResult> results(queries.size());
  Timer wall;
  for (size_t i = 0; i < queries.size(); ++i) {
    const EngineQuery query = queries[i];
    EngineResult* slot = &results[i];
    const uint64_t enqueue_ns = StopwatchNs::Now();
    const Status submitted = pool_->Submit(
        [this, query, slot, state, enqueue_ns](size_t worker_id) {
          RunOne(worker_id, query, slot, enqueue_ns);
          std::lock_guard<std::mutex> lock(state->mutex);
          if (--state->pending == 0) state->done.notify_all();
        });
    if (!submitted.ok()) {
      {
        // The tasks from queries [i, n) never made it into the pool.
        std::lock_guard<std::mutex> lock(state->mutex);
        state->pending -= queries.size() - i;
        if (state->pending == 0) state->done.notify_all();
      }
      AwaitCall(*state);  // queued tasks hold `results` slot pointers
      stats_.MarkCallEnd();
      return submitted;
    }
  }
  AwaitCall(*state);
  stats_.AddWallTime(wall.ElapsedSeconds());
  stats_.MarkCallEnd();
  return results;
}

Result<std::vector<EngineResult>> QueryEngine::RunBatch(
    const std::vector<ReliabilityQuery>& queries) {
  std::vector<EngineQuery> wrapped;
  wrapped.reserve(queries.size());
  for (const ReliabilityQuery& query : queries) {
    wrapped.push_back(EngineQuery(query));
  }
  return RunBatch(wrapped);
}

bool QueryEngine::ServableFromCache(const EngineQuery& query) const {
  const QueryPlan plan = PlanFor(query);
  const uint64_t query_seed = SeedForPlan(query, plan);
  if (cache_ != nullptr &&
      cache_->Contains(ResultCacheKey{query, plan.kind, plan.num_samples,
                                      query_seed})) {
    return true;
  }
  // A memoized sweep answers any k / eta over its source without an
  // estimator — deriving is a rank/filter pass, cheap enough to admit.
  if (sweep_cache_ != nullptr && IsSweepWorkload(query.workload) &&
      sweep_cache_->Contains(SweepCacheKey{plan.kind, query.source,
                                           plan.num_samples, query_seed})) {
    return true;
  }
  return false;
}

Status QueryEngine::AdmitQuery(const EngineQuery& query) {
  const size_t depth = pool_->queue_depth();
  const char* reason = nullptr;
  if (depth >= pool_->queue_capacity()) {
    // Submit() would block the caller — under overload that converts the
    // client into part of the queue. Shed instead: cheap for the client to
    // retry, and the hint below tells it when.
    reason = "queue_full";
  } else if (options_.shed_queue_depth > 0 &&
             depth >= options_.shed_queue_depth &&
             !ServableFromCache(query)) {
    // Predictive gate: past the threshold only cache-servable work — which
    // occupies a worker for microseconds — is admitted. Compute-bound
    // queries are cheap to retry *before* they are computed; that is the
    // moment to refuse them.
    reason = "overload";
  }
  if (reason == nullptr) return Status::OK();
  stats_.RecordShed(reason);
  // Retry-after hint: the backlog ahead of this query, paced by the p50
  // query latency per worker. Floor of 1ms keeps the hint meaningful when
  // the histogram is empty (cold engine).
  const double p50_ms = static_cast<double>(
      stats_.registry().GetHistogram("engine_query_latency_ns")
          ->Snapshot()
          .Quantile(0.5)) / 1e6;
  const double waves =
      static_cast<double>(depth) /
      static_cast<double>(pool_->num_threads() == 0 ? 1 : pool_->num_threads());
  const double retry_after_ms = std::max(1.0, waves * p50_ms);
  return Status::Unavailable(
      StrFormat("query shed (%s): queue depth %zu; retry after ~%.0f ms",
                reason, depth, retry_after_ms));
}

void QueryEngine::ScheduleResultRefresh(const ResultCacheKey& key) {
  // Refreshes ride the dedicated low-priority lane when one exists, so a
  // stale burst never competes with serving queries for the main pool.
  const Status submitted = SubmitRefreshTask([this, key](size_t worker_id) {
    // The plan is recomputed, not trusted from the key: a router may have
    // drifted since the stale entry was cached. A refresh can only honor
    // the *same* key it owns — on any mismatch it re-arms the entry and
    // lets it age out at the stale deadline instead of publishing an
    // answer under a key it does not match.
    const QueryPlan plan = PlanFor(key.query);
    if (plan.kind != key.kind || plan.num_samples != key.num_samples ||
        SeedForPlan(key.query, plan) != key.seed) {
      cache_->ClearRefreshPending(key);
      return;
    }
    Result<WorkloadResult> result =
        ComputeWorkload(worker_id, key.query, plan, key.seed,
                        /*cancel=*/nullptr, /*trace=*/nullptr,
                        obs::TraceBuffer::kNone);
    if (!result.ok()) {
      // A failed refresh must not mask the still-servable stale answer (and
      // transient failures must not be cached at all): re-arm so a later
      // stale hit elects a new owner.
      cache_->ClearRefreshPending(key);
      return;
    }
    ResultCacheValue value;
    value.reliability = result->reliability;
    value.num_samples = result->num_samples;
    value.targets = std::move(result->targets);
    cache_->Insert(key, value, options_.cache_ttl);
  });
  // Best-effort: a full lane/pool means no refresh this episode — re-arm.
  if (!submitted.ok()) cache_->ClearRefreshPending(key);
}

Status QueryEngine::Submit(const EngineQuery& query) {
  RELCOMP_RETURN_NOT_OK(ValidateWorkload(graph_, query));
  if (options_.enable_load_shedding) {
    RELCOMP_RETURN_NOT_OK(AdmitQuery(query));
  }
  // The pool submit happens under stream_mutex_ so a concurrent Drain either
  // sees this query fully enqueued (and waits for it) or not at all (next
  // cycle); a slot can never be mid-flight across a drain boundary.
  std::lock_guard<std::mutex> lock(stream_mutex_);
  if (stream_results_.empty()) {
    stream_timer_.Restart();
    stream_state_ = std::make_shared<CallState>();
  }
  stats_.MarkCallStart();
  stream_results_.push_back(std::make_unique<EngineResult>());
  EngineResult* slot = stream_results_.back().get();
  std::shared_ptr<CallState> state = stream_state_;
  {
    std::lock_guard<std::mutex> state_lock(state->mutex);
    ++state->pending;
  }
  const uint64_t enqueue_ns = StopwatchNs::Now();
  const Status submitted = pool_->Submit(
      [this, query, slot, state, enqueue_ns](size_t worker_id) {
        RunOne(worker_id, query, slot, enqueue_ns);
        std::lock_guard<std::mutex> state_lock(state->mutex);
        if (--state->pending == 0) state->done.notify_all();
      });
  if (!submitted.ok()) {
    stream_results_.pop_back();
    std::lock_guard<std::mutex> state_lock(state->mutex);
    --state->pending;
  }
  return submitted;
}

Result<std::vector<EngineResult>> QueryEngine::Drain() {
  // Detach the current stream cycle, then await its own counter: every
  // detached slot's task was accounted under stream_mutex_, so AwaitCall
  // covers all of them, Submits racing this Drain land in the next cycle
  // untouched, and another client's batch load cannot stall us.
  std::vector<std::unique_ptr<EngineResult>> pending;
  std::shared_ptr<CallState> state;
  Timer cycle_timer;
  {
    std::lock_guard<std::mutex> lock(stream_mutex_);
    pending.swap(stream_results_);
    state = std::move(stream_state_);
    cycle_timer = stream_timer_;
  }
  if (state != nullptr) AwaitCall(*state);
  if (pending.empty()) return std::vector<EngineResult>{};
  stats_.AddWallTime(cycle_timer.ElapsedSeconds());
  stats_.MarkCallEnd();
  std::vector<EngineResult> results;
  results.reserve(pending.size());
  for (const std::unique_ptr<EngineResult>& result : pending) {
    results.push_back(*result);
  }
  return results;
}

}  // namespace relcomp
