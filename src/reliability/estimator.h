#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "common/cancel.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "graph/uncertain_graph.h"
#include "obs/trace.h"

namespace relcomp {

/// \brief An s-t reliability query: the probability R(s, t) that `target` is
/// reachable from `source` under possible-world semantics (Eq. 2).
struct ReliabilityQuery {
  NodeId source = kInvalidNode;
  NodeId target = kInvalidNode;
};

/// \brief Per-call knobs shared by all estimators.
struct EstimateOptions {
  /// Number of samples K. Recursive estimators interpret this as the total
  /// sample budget they split across branches/strata.
  uint32_t num_samples = 1000;
  /// Seed for this call; equal seeds give bit-identical results.
  uint64_t seed = 0;
  /// Stratified sample partitioning: the budget K is split into this many
  /// fixed strata, stratum j drawing from StratumSeed(seed, j, num_strata).
  /// The result is a canonical function of (query content, num_strata) —
  /// NOT of thread count or execution order — so an engine may run the
  /// strata of one call on many workers (EstimateSweepStratumHits) and merge
  /// bit-identically to a serial call with the same num_strata. num_strata
  /// <= 1 is the legacy unstratified path, bit-identical to pre-strata
  /// behaviour. Honored by the MC cores (sweeps and s-t DoEstimate); BFS
  /// Sharing sweeps are stratified by world *slices* of one generation, so
  /// their results are identical for every num_strata; estimators without a
  /// stratified core ignore it.
  uint32_t num_strata = 1;
  /// Optional sink for the call's working-set accounting (the paper's
  /// "online memory usage" metric). Consulted by the dispatch-surface calls
  /// (EstimateFromSource, EstimateDistanceConstrained) — Estimate() tracks
  /// internally and reports through EstimateResult instead. Never part of
  /// the determinism contract: results are identical with or without it.
  MemoryTracker* memory = nullptr;
  /// Optional per-query trace collector (engine-owned). Estimator cores that
  /// do stage-shaped work (MC sample loops, BFS Sharing world slices) emit
  /// kSample / kBfs spans into it, parented under `trace_parent`. Like
  /// `memory`, never part of the determinism contract: results are
  /// bit-identical with tracing on or off.
  obs::TraceBuffer* trace = nullptr;
  /// Span id in `trace` the estimator's spans attach under
  /// (obs::TraceBuffer::kNone = root).
  uint32_t trace_parent = obs::TraceBuffer::kNone;
  /// Optional cooperative-cancellation token (engine-owned, may be null).
  /// Cores with long sample loops poll it at stratum boundaries (MC
  /// additionally every few dozen samples) and return kDeadlineExceeded /
  /// kCancelled instead of finishing. All-or-nothing: a cancelled call
  /// never returns a partial estimate, so completed calls are bit-identical
  /// with or without a token attached (polling consumes no randomness).
  const CancelToken* cancel = nullptr;
};

/// \brief Outcome of one estimation call.
struct EstimateResult {
  /// The reliability estimate in [0, 1].
  double reliability = 0.0;
  /// Samples actually consumed (== EstimateOptions::num_samples except for
  /// degenerate early exits).
  uint32_t num_samples = 0;
  /// Wall-clock seconds spent inside the call.
  double seconds = 0.0;
  /// Peak logical bytes of the estimator's online working structures for
  /// this call (excludes the input graph and any prebuilt index; see
  /// Estimator::IndexMemoryBytes).
  size_t peak_memory_bytes = 0;
};

/// \brief Per-kind asymptotic cost terms an estimator reports about itself.
///
/// Consumed by the engine's EstimatorRouter to seed its Default cost model
/// (RouterModel::Default) when no calibrated tournament profile is loaded.
/// These are rough *priors*, not measurements — the unit is "edge visits",
/// normalized so plain MC costs 1.0 per sample per expected sampled edge;
/// a calibrated profile (estimator_tournament --json) always overrides them.
/// Never part of the determinism contract: changing a hint changes routing
/// predictions, never the answer a given (kind, K, S, seed) produces.
struct CostHints {
  /// Edge-visit cost of one sample / possible world, relative to MC's BFS
  /// over one sampled subgraph (multiplied by K and the expected sampled
  /// edge count when predicting a call).
  double per_sample_edge_cost = 1.0;
  /// Fixed per-query edge-visit cost independent of K, in multiples of the
  /// graph's edge count m (BFS Sharing's inter-query resample is L bits per
  /// edge, so it reports ~L here; index-free kinds report 0).
  double per_query_edge_cost = 0.0;
  /// True when one EstimateFromSource amortizes the per-sample work across
  /// every target, so a full sweep costs about the same as one s-t call.
  bool sweep_amortized = false;
};

/// \brief Opaque, read-only snapshot of an estimator's per-query prepared
/// state (ShareCurrentPreparedState). The concrete payload is
/// estimator-specific; callers only move the handle between replicas.
class PreparedGeneration {
 public:
  virtual ~PreparedGeneration() = default;
};

/// \brief Common interface of the six s-t reliability estimators.
///
/// An estimator binds to one UncertainGraph at construction and answers many
/// queries. Implementations are deterministic in EstimateOptions::seed and
/// reusable (scratch is reset per call); they are not thread-safe per
/// instance — use one instance per thread.
///
/// Beyond the core s-t Estimate, the interface carries an optional workload
/// dispatch surface (source sweeps for top-k / reliable-set, distance-
/// constrained estimation) so engine replicas can answer the whole workload
/// family of reliability/workload.h. Kinds that cannot answer a workload
/// return NotSupported from the defaults.
class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Short display name ("MC", "BFSSharing", "ProbTree", "LP+", "RHH",
  /// "RSS").
  virtual std::string_view name() const = 0;

  /// The graph this estimator answers queries over.
  virtual const UncertainGraph& graph() const = 0;

  /// Estimates R(s, t). Validates the query, times the call, and accounts
  /// the working memory; the algorithm itself is in DoEstimate.
  Result<EstimateResult> Estimate(const ReliabilityQuery& query,
                                  const EstimateOptions& options);

  /// Asymptotic cost terms of this estimator (see CostHints): the router's
  /// fallback priors when no calibrated profile is available. The default is
  /// MC-shaped (1.0 per sample per edge, no fixed per-query work).
  virtual CostHints cost_hints() const { return CostHints{}; }

  /// Logical bytes of any prebuilt index kept resident for queries
  /// (BFS Sharing edge bit-vectors, ProbTree bags); 0 for index-free
  /// estimators.
  virtual size_t IndexMemoryBytes() const { return 0; }

  /// The portion of IndexMemoryBytes() held through an immutable index that
  /// may be shared with other replicas (see MakeEstimatorReplicas). Memory
  /// reports must count each shared index once, not once per replica —
  /// deduplicate by SharedIndexIdentity(). 0 for index-free estimators.
  virtual size_t SharedIndexBytes() const { return 0; }

  /// Stable identity of the shared index this replica currently holds (the
  /// index object's address), or nullptr when it holds none. Two replicas
  /// returning the same non-null identity read literally the same index.
  virtual const void* SharedIndexIdentity() const { return nullptr; }

  /// Inter-query maintenance hook. BFS Sharing must resample its possible
  /// worlds between successive queries to keep answers independent
  /// (Table 15); all other estimators are no-ops.
  virtual Status PrepareForNextQuery(uint64_t seed) {
    (void)seed;
    return Status::OK();
  }

  /// \name Shared prepared state (stratum thieves of one sweep)
  /// @{

  /// True when a *prepared* replica can hand its per-query prepared state
  /// to sibling replicas in O(1) (BFS Sharing: the freshly resampled
  /// generation, shared read-only), so workers stealing strata of one
  /// sweep skip re-running the O(L·m) prepare the leader already did.
  virtual bool SupportsSharedPreparedState() const { return false; }

  /// Read-only snapshot of this replica's current prepared state,
  /// adoptable by any replica of the same graph and options.
  /// Precondition: PrepareForNextQuery (or an adoption) ran for the
  /// current query. Default: NotSupported.
  virtual Result<std::shared_ptr<const PreparedGeneration>>
  ShareCurrentPreparedState() const;

  /// Points this replica at `state` (a ShareCurrentPreparedState snapshot):
  /// bit-identical to having run PrepareForNextQuery with the sharer's
  /// seed, in O(1). The replica yields any in-place-resample ownership
  /// until its next inline prepare (shared generations are never mutated
  /// under a reader). Serving-thread only. Default: NotSupported.
  virtual Status AdoptSharedPreparedState(
      std::shared_ptr<const PreparedGeneration> state);

  /// @}

  /// \name Workload dispatch surface (source sweeps, distance bounds)
  /// @{

  /// True when EstimateFromSource is implemented natively (one sweep
  /// amortized across every candidate target — MC and BFS Sharing).
  virtual bool SupportsSourceSweep() const { return false; }

  /// Source sweep: the reliability of every node from `source` (index =
  /// node id; 0 for unreachable nodes, including any value for the source
  /// itself — callers exclude it). Deterministic in `options.seed` exactly
  /// like Estimate. Default: NotSupported.
  virtual Result<std::vector<double>> EstimateFromSource(
      NodeId source, const EstimateOptions& options);

  /// True when one source sweep can execute as independent strata through
  /// EstimateSweepStratumHits (MC and BFS Sharing). Implies
  /// SupportsSourceSweep.
  virtual bool SupportsStratifiedSweep() const { return false; }

  /// Runs stratum `stratum` of the `num_strata`-way partition of the source
  /// sweep defined by (source, options.num_samples, options.seed): per-node
  /// *hit counts* over this stratum's sample slice (index = node id). The
  /// contract that makes engine-side work stealing semantically invisible:
  /// summing every stratum's counts in index order and dividing by
  /// options.num_samples is bit-identical to EstimateFromSource with
  /// options.num_strata == num_strata — on any thread, in any claim order.
  /// options.num_samples is the TOTAL budget K (the callee derives its
  /// slice via StratumSampleCount / StratumSampleOffset) and options.seed is
  /// the sweep seed (the callee derives its stratum seed). Strata of one
  /// sweep may run on different replicas; each replica must be prepared
  /// identically first (same PrepareForNextQuery seed). Default:
  /// NotSupported.
  virtual Result<std::vector<uint32_t>> EstimateSweepStratumHits(
      NodeId source, uint32_t stratum, uint32_t num_strata,
      const EstimateOptions& options);

  /// True when EstimateDistanceConstrained is implemented natively (MC and
  /// RHH, the estimators the distance-constrained variants of
  /// reliability/distance_constrained.h are built on).
  virtual bool SupportsDistanceConstrained() const { return false; }

  /// Distance-constrained reliability R_d(s, t): reachable within at most
  /// `max_hops` hops. Deterministic in `options.seed`. Default: NotSupported.
  virtual Result<double> EstimateDistanceConstrained(
      const ReliabilityQuery& query, uint32_t max_hops,
      const EstimateOptions& options);

  /// @}

 protected:
  /// Algorithm body: returns the reliability estimate, reporting working
  /// structures to `memory`.
  virtual Result<double> DoEstimate(const ReliabilityQuery& query,
                                    const EstimateOptions& options,
                                    MemoryTracker* memory) = 0;
};

}  // namespace relcomp
