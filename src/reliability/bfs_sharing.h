#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "common/bitvector.h"
#include "reliability/estimator.h"

namespace relcomp {

/// \brief Options for the BFS Sharing index [45].
struct BfsSharingOptions {
  /// L: number of pre-sampled possible worlds stored per edge. The paper
  /// uses L = 1500 as a "safe bound" since K at convergence is not known
  /// apriori (Section 3.7). Queries may use any K <= L.
  uint32_t index_samples = 1500;
};

/// \brief One immutable generation of the BFS Sharing index: the L-bit edge
/// vectors of Figure 3 (bit i = "edge exists in pre-sampled world i").
///
/// A generation is frozen at Build()/LoadFromFile() and never mutated, so any
/// number of estimator replicas may read it concurrently through a
/// `shared_ptr<const BfsSharingIndex>` — the engine builds the index once for
/// all worker threads instead of once per replica. Resampling
/// (BfsSharingEstimator::PrepareForNextQuery) creates a *new* generation and
/// swaps the pointer; the old generation is freed when its last reader drops
/// it.
class BfsSharingIndex {
 public:
  /// Samples a fresh generation: O(L m) time, O(L m) space. Deterministic in
  /// `seed` (bit-identical worlds for equal seeds and options). The returned
  /// handle is the only mutable reference; share it onward as
  /// `shared_ptr<const>`.
  static Result<std::shared_ptr<BfsSharingIndex>> Build(
      const UncertainGraph& graph, const BfsSharingOptions& options,
      uint64_t seed);

  /// Restores a generation persisted by SaveToFile (Figure 13c measures
  /// this). The graph is needed only to validate the edge count.
  static Result<std::shared_ptr<BfsSharingIndex>> LoadFromFile(
      const UncertainGraph& graph, const std::string& path);

  /// Serializes this generation as a snapshot-section payload: {L u32,
  /// pad u32, m u64} then the packed words verbatim. The word block starts
  /// 16 bytes in, so inside a 64-byte-aligned snapshot section it is 8-byte
  /// aligned for the zero-copy FromBlock path.
  void AppendBlock(std::string* out) const;

  /// Reconstructs a generation from an AppendBlock payload — zero-copy when
  /// `data` is 8-byte aligned: the generation reads the words directly out
  /// of the (typically mmap'd) block and holds `backing` alive, which is
  /// what makes snapshot cold-start O(1) instead of O(L m). A mapped
  /// generation is never resampled through the block (Resample materializes
  /// a private copy first), so the mapping stays read-only.
  static Result<std::shared_ptr<BfsSharingIndex>> FromBlock(
      const UncertainGraph& graph, const void* data, size_t size,
      std::shared_ptr<const void> backing);

  /// True when the words are read out of an external (mmap'd) block rather
  /// than owned memory.
  bool mapped() const { return backing_ != nullptr; }

  /// Refills every edge's worlds in place — bit-identical to a fresh
  /// Build(graph, options, seed) with this generation's L, but with zero
  /// allocation (the serving path's steady state: every query re-arms).
  /// Caller must hold the generation exclusively: no other replica may read
  /// the bit content concurrently (size-only readers like MemoryBytes are
  /// unaffected — refilling never changes shapes).
  void Resample(const UncertainGraph& graph, uint64_t seed);

  /// Persists the edge bit-vectors to `path`.
  Status SaveToFile(const std::string& path) const;

  /// L, the number of worlds stored per edge.
  uint32_t num_samples() const { return num_samples_; }
  size_t num_edges() const { return num_edges_; }

  /// The edge vectors live in one dense block of `words_per_edge()` 64-bit
  /// words per edge (= ceil(L / 64)), packed back to back in edge-id order —
  /// no per-edge vector headers, one allocation per generation. edge_words(e)
  /// is the start of edge e's block; bits [0, L) of the block are worlds,
  /// the block tail (if L % 64 != 0) is kept zero so popcounts stay exact.
  size_t words_per_edge() const { return words_per_edge_; }
  const uint64_t* edge_words(EdgeId e) const {
    return words_data_ + static_cast<size_t>(e) * words_per_edge_;
  }

  /// Edge bit-vector bytes resident in memory.
  size_t MemoryBytes() const;

  /// Seconds spent sampling (or loading) this generation.
  double build_seconds() const { return build_seconds_; }

  /// Process-wide count of Build()/LoadFromFile() completions (in-place
  /// Resample()s allocate nothing and are not counted). Lets tests and the
  /// CI smoke bench assert that N engine replicas triggered exactly one
  /// index construction.
  static uint64_t BuildCount() {
    return build_count_.load(std::memory_order_relaxed);
  }

 private:
  BfsSharingIndex() = default;

  uint32_t num_samples_ = 0;
  double build_seconds_ = 0.0;
  size_t num_edges_ = 0;
  size_t words_per_edge_ = 0;
  /// num_edges * words_per_edge words, edge blocks back to back — owned
  /// storage for built/loaded generations, empty for mapped ones.
  std::vector<uint64_t> words_;
  /// The words every reader goes through: words_.data() for owned
  /// generations, a pointer into `backing_` for mapped ones.
  const uint64_t* words_data_ = nullptr;
  size_t num_words_ = 0;
  /// Keeps a mapped generation's snapshot mapping alive (null when owned).
  std::shared_ptr<const void> backing_;
  static std::atomic<uint64_t> build_count_;
};

/// \brief Indexing via BFS Sharing (Algorithms 2 + 3; Zhu et al. [45],
/// adapted from top-k reliability search to single s-t queries).
///
/// Offline, K possible worlds are materialized as one bit-vector of L bits
/// per edge (bit i = edge exists in world i). Online, a single BFS carries a
/// bit-vector I_v per node (worlds where v is reachable from s), propagating
/// I_v |= I_u & I_e word-parallel across all worlds at once, with cascading
/// fix-point updates when a visited node gains new worlds. No early
/// termination is possible (the paper's key observation: this makes BFS
/// Sharing ~4x slower than plain MC despite the shared index).
///
/// This implementation follows the paper's *corrected* complexity analysis:
/// online time is O(K(m+n)) — it grows with K — not independent of K as
/// claimed in [45].
///
/// Memory split: the index generation is immutable and shareable across
/// replicas (see BfsSharingIndex); only the per-query scratch (node
/// bit-vectors, visit epochs) is private to this instance. The serving path
/// is read-only on the index, so replicas sharing one generation answer
/// concurrently without synchronization.
class BfsSharingEstimator : public Estimator {
 public:
  /// Builds a private generation-0 index (O(L m) time, O(n + L m) space).
  static Result<std::unique_ptr<BfsSharingEstimator>> Create(
      const UncertainGraph& graph, const BfsSharingOptions& options,
      uint64_t index_seed);

  /// Wraps an existing (possibly shared) index generation — the replica path:
  /// N estimators over one `shared_ptr<const>` index cost one build.
  static Result<std::unique_ptr<BfsSharingEstimator>> Create(
      const UncertainGraph& graph,
      std::shared_ptr<const BfsSharingIndex> index);

  /// Loads a previously saved index from `path` (Figure 13c measures this).
  static Result<std::unique_ptr<BfsSharingEstimator>> LoadFromFile(
      const UncertainGraph& graph, const std::string& path);

  /// Persists the current index generation to `path`.
  Status SaveToFile(const std::string& path) const;

  std::string_view name() const override { return "BFSSharing"; }
  const UncertainGraph& graph() const override { return graph_; }

  /// Cheap per sample (offline worlds, one shared BFS over bit-vector
  /// words), but the inter-query resample rewrites L bits per edge — the
  /// dominant per-query term the router must price in.
  CostHints cost_hints() const override {
    CostHints hints;
    hints.per_sample_edge_cost = 0.25;
    hints.per_query_edge_cost =
        static_cast<double>(shared_index() == nullptr
                                ? 0
                                : shared_index()->num_samples()) /
        64.0;  // resample writes L bits/edge = L/64 words/edge
    hints.sweep_amortized = true;
    return hints;
  }

  /// Edge bit-vector bytes resident in memory (the current generation).
  size_t IndexMemoryBytes() const override;
  /// The whole index is held via a shareable immutable generation.
  size_t SharedIndexBytes() const override { return IndexMemoryBytes(); }
  const void* SharedIndexIdentity() const override {
    return shared_index().get();
  }

  /// Re-samples all edge bit-vectors. Required between successive queries to
  /// keep their answers independent (Table 15 measures this per-query cost).
  /// When this replica exclusively owns its generation, the worlds are
  /// refilled in place (zero allocation — the serving-path steady state);
  /// otherwise a fresh generation is built and atomically swapped in,
  /// leaving generations still referenced by other replicas untouched.
  Status PrepareForNextQuery(uint64_t seed) override;

  /// Shared-prepared-state surface: a prepared replica hands its current
  /// generation to sibling replicas as a read-only snapshot, adopted in
  /// O(1) — how stratum thieves skip re-running the sharer's O(L·m)
  /// resample. The ownership discipline of PrepareForNextQuery (in-place
  /// resampling only at use_count == 2) makes the share race-free: a
  /// generation with outstanding readers is never refilled in place.
  bool SupportsSharedPreparedState() const override { return true; }
  Result<std::shared_ptr<const PreparedGeneration>> ShareCurrentPreparedState()
      const override;
  Status AdoptSharedPreparedState(
      std::shared_ptr<const PreparedGeneration> state) override;

  /// The generation this replica currently reads (atomic snapshot).
  std::shared_ptr<const BfsSharingIndex> shared_index() const {
    return index_.load(std::memory_order_acquire);
  }

  /// Seconds spent building (or loading) the current generation.
  double index_build_seconds() const { return shared_index()->build_seconds(); }
  /// L, the number of worlds stored per edge.
  uint32_t index_samples() const { return options_.index_samples; }

  /// One shared BFS, all targets at once: the reliability of every node from
  /// `source` over the first `num_samples` indexed worlds (0 for nodes the
  /// BFS never reaches). This is the primitive behind the original top-k
  /// reliability search of [45] (see top_k.h). `memory`, when given,
  /// receives the sweep's working-set accounting (node bit-vectors, epochs,
  /// the result vector).
  Result<std::vector<double>> ReliabilityFromSource(
      NodeId source, uint32_t num_samples, MemoryTracker* memory = nullptr);

  /// Per-node reachable-world counts over the world slice [world_offset,
  /// world_offset + world_count) of the current generation: the shared BFS
  /// run against a bit-range of the edge vectors (no copy). Because each
  /// indexed world is independent, counts over disjoint slices sum to
  /// exactly the whole-range counts — which is why a stratified BFS Sharing
  /// sweep is bit-identical to the serial sweep for *every* stratum count,
  /// provided all strata read the same generation (same prepare seed).
  Result<std::vector<uint32_t>> SourceHitCountsInWorldRange(
      NodeId source, uint32_t world_offset, uint32_t world_count,
      MemoryTracker* memory = nullptr);

  /// Engine dispatch surface for top-k / reliable-set workloads: the sweep
  /// above over the current index generation. Like DoEstimate, the per-call
  /// seed is unused — re-arm via PrepareForNextQuery to pick the worlds
  /// (the engine does this with a content-derived seed before every query).
  /// options.num_strata is ignored: slices sum exactly, so the sweep is
  /// stratification-invariant (see SourceHitCountsInWorldRange).
  bool SupportsSourceSweep() const override { return true; }
  Result<std::vector<double>> EstimateFromSource(
      NodeId source, const EstimateOptions& options) override {
    // Cancellation point: BFS Sharing's sweep is one bit-parallel BFS over
    // the whole world range — short next to an MC sweep — so the poll sits
    // at the call boundary (the engine's stratum scheduler polls between
    // slices on top of this).
    if (options.cancel != nullptr && options.cancel->Cancelled()) {
      return options.cancel->ToStatus();
    }
    obs::ScopedSpan bfs_span(options.trace, obs::SpanKind::kBfs,
                             options.trace_parent);
    return ReliabilityFromSource(source, options.num_samples, options.memory);
  }

  /// One stratum = one world slice of the budget's [0, K) range.
  bool SupportsStratifiedSweep() const override { return true; }
  Result<std::vector<uint32_t>> EstimateSweepStratumHits(
      NodeId source, uint32_t stratum, uint32_t num_strata,
      const EstimateOptions& options) override;

 protected:
  Result<double> DoEstimate(const ReliabilityQuery& query,
                            const EstimateOptions& options,
                            MemoryTracker* memory) override;

 private:
  BfsSharingEstimator(const UncertainGraph& graph,
                      std::shared_ptr<const BfsSharingIndex> index);

  /// Core of Algorithms 2+3: fills node_bits_ / visit_epoch_ for all nodes
  /// reached from `source`, with cascading fix-point updates, over the world
  /// slice [world_offset, world_offset + num_samples) of the edge vectors
  /// (0 for the whole-range sweep). Reads only `index` and this replica's
  /// private scratch.
  Status RunSharedBfs(const BfsSharingIndex& index, NodeId source,
                      uint32_t world_offset, uint32_t num_samples,
                      ScopedAllocation* working);

  const UncertainGraph& graph_;
  BfsSharingOptions options_;
  /// Current generation. Atomic so StatsSnapshot readers may observe the
  /// pointer while this replica's worker swaps generations; readers never
  /// touch bit content (sizes only).
  std::atomic<std::shared_ptr<const BfsSharingIndex>> index_;
  /// Mutable handle to the current generation IFF this replica built it
  /// privately (Create-with-options, LoadFromFile, or a past generation
  /// swap); nullptr while reading a generation handed in from outside that
  /// other replicas may share. Exclusive ownership (use_count == 2: this +
  /// the copy inside index_) enables in-place resampling.
  std::shared_ptr<BfsSharingIndex> owned_;

  /// Per-query scratch, epoch-reused: node bit-vectors I_v and visited marks.
  std::vector<BitVector> node_bits_;
  std::vector<uint32_t> visit_epoch_;
  std::vector<uint32_t> in_queue_epoch_;
  uint32_t epoch_ = 0;
};

}  // namespace relcomp
