#include "reliability/bfs_sharing.h"

#include <cstring>
#include <deque>
#include <fstream>

#include "common/format.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/wire.h"

namespace relcomp {

namespace {
constexpr char kIndexMagic[8] = {'R', 'E', 'L', 'B', 'F', 'S', 'I', 'X'};

/// The shared-prepared-state snapshot: a read-only view of an already
/// prepared replica's generation, adoptable in O(1) by stratum thieves.
class SharedBfsGeneration : public PreparedGeneration {
 public:
  explicit SharedBfsGeneration(std::shared_ptr<const BfsSharingIndex> index)
      : index(std::move(index)) {}
  std::shared_ptr<const BfsSharingIndex> index;
};

}  // namespace

std::atomic<uint64_t> BfsSharingIndex::build_count_{0};

Result<std::shared_ptr<BfsSharingIndex>> BfsSharingIndex::Build(
    const UncertainGraph& graph, const BfsSharingOptions& options,
    uint64_t seed) {
  if (options.index_samples == 0) {
    return Status::InvalidArgument("BFS Sharing: index_samples must be positive");
  }
  std::shared_ptr<BfsSharingIndex> index(new BfsSharingIndex());
  index->num_samples_ = options.index_samples;
  index->num_edges_ = graph.num_edges();
  index->words_per_edge_ = (options.index_samples + 63) / 64;
  index->words_.assign(index->num_edges_ * index->words_per_edge_, 0);
  index->words_data_ = index->words_.data();
  index->num_words_ = index->words_.size();
  index->Resample(graph, seed);
  build_count_.fetch_add(1, std::memory_order_relaxed);
  return index;
}

void BfsSharingIndex::Resample(const UncertainGraph& graph, uint64_t seed) {
  Timer timer;
  // A mapped generation reads its words out of a read-only snapshot
  // mapping; materialize a private copy before the first in-place refill.
  // (The engine never takes this path — replicas over a shared mapped
  // generation have no ownership and swap to fresh builds — but direct
  // index users must not be able to scribble on the mapping.)
  if (backing_ != nullptr) {
    words_.assign(words_data_, words_data_ + num_words_);
    words_data_ = words_.data();
    backing_.reset();
  }
  Rng rng(seed);
  // FillBernoulliWords consumes the identical RNG stream as the historical
  // per-edge BitVector fill, so generations stay bit-identical across the
  // storage change (and across graph storage layouts, which preserve edge
  // ids and bitwise probabilities).
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    BitVector::FillBernoulliWords(words_.data() + e * words_per_edge_,
                                  num_samples_, graph.prob(e), rng);
  }
  build_seconds_ = timer.ElapsedSeconds();
}

size_t BfsSharingIndex::MemoryBytes() const {
  return num_words_ * sizeof(uint64_t);
}

void BfsSharingIndex::AppendBlock(std::string* out) const {
  WireWriter writer(out);
  writer.PutU32(num_samples_);
  writer.PutU32(0);  // pad: keeps the word block 8-byte aligned
  writer.PutU64(num_edges_);
  writer.PutBytes(words_data_, num_words_ * sizeof(uint64_t));
}

Result<std::shared_ptr<BfsSharingIndex>> BfsSharingIndex::FromBlock(
    const UncertainGraph& graph, const void* data, size_t size,
    std::shared_ptr<const void> backing) {
  WireReader reader(data, size);
  uint32_t l = 0, pad = 0;
  uint64_t m = 0;
  if (!reader.ReadU32(&l) || !reader.ReadU32(&pad) || !reader.ReadU64(&m)) {
    return Status::IOError("BFS Sharing block: truncated header");
  }
  if (l == 0) {
    return Status::IOError("BFS Sharing block: zero samples");
  }
  if (m != graph.num_edges()) {
    return Status::InvalidArgument(
        StrFormat("BFS Sharing block: index has %llu edges, graph has %zu",
                  static_cast<unsigned long long>(m), graph.num_edges()));
  }
  const size_t words_per_edge = (l + 63) / 64;
  const size_t num_words = static_cast<size_t>(m) * words_per_edge;
  if (reader.remaining() != num_words * sizeof(uint64_t)) {
    return Status::IOError(
        StrFormat("BFS Sharing block: expected %zu word bytes, have %zu",
                  num_words * sizeof(uint64_t), reader.remaining()));
  }
  Timer timer;
  std::shared_ptr<BfsSharingIndex> index(new BfsSharingIndex());
  index->num_samples_ = l;
  index->num_edges_ = m;
  index->words_per_edge_ = words_per_edge;
  index->num_words_ = num_words;
  const uint8_t* words = reader.cursor();
  if (backing != nullptr &&
      reinterpret_cast<uintptr_t>(words) % alignof(uint64_t) == 0) {
    // Zero-copy: read the worlds straight out of the mapped block. This is
    // the O(1) cold-start path — no word is touched until a BFS reads it.
    index->words_data_ = reinterpret_cast<const uint64_t*>(words);
    index->backing_ = std::move(backing);
  } else {
    index->words_.resize(num_words);
    std::memcpy(index->words_.data(), words, num_words * sizeof(uint64_t));
    index->words_data_ = index->words_.data();
  }
  index->build_seconds_ = timer.ElapsedSeconds();
  build_count_.fetch_add(1, std::memory_order_relaxed);
  return index;
}

Status BfsSharingIndex::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return Status::IOError("cannot open for writing: " + path);
  out.write(kIndexMagic, sizeof(kIndexMagic));
  const uint64_t m = num_edges_;
  const uint32_t l = num_samples_;
  out.write(reinterpret_cast<const char*>(&m), sizeof(m));
  out.write(reinterpret_cast<const char*>(&l), sizeof(l));
  // The packed block IS the historical per-edge layout (ceil(L/64) words per
  // edge, edge-id order), so one bulk write preserves the on-disk format
  // byte for byte.
  out.write(reinterpret_cast<const char*>(words_data_),
            static_cast<std::streamsize>(num_words_ * sizeof(uint64_t)));
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<std::shared_ptr<BfsSharingIndex>> BfsSharingIndex::LoadFromFile(
    const UncertainGraph& graph, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IOError("cannot open for reading: " + path);
  char magic[8];
  uint64_t m = 0;
  uint32_t l = 0;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&m), sizeof(m));
  in.read(reinterpret_cast<char*>(&l), sizeof(l));
  if (!in.good() || std::memcmp(magic, kIndexMagic, sizeof(magic)) != 0) {
    return Status::IOError("not a BFS Sharing index: " + path);
  }
  if (m != graph.num_edges()) {
    return Status::InvalidArgument(
        StrFormat("index has %llu edges, graph has %zu",
                  static_cast<unsigned long long>(m), graph.num_edges()));
  }
  if (l == 0) {
    return Status::IOError("BFS Sharing index has zero samples: " + path);
  }
  Timer timer;
  std::shared_ptr<BfsSharingIndex> index(new BfsSharingIndex());
  index->num_samples_ = l;
  index->num_edges_ = m;
  index->words_per_edge_ = (l + 63) / 64;
  index->words_.assign(m * index->words_per_edge_, 0);
  index->words_data_ = index->words_.data();
  index->num_words_ = index->words_.size();
  in.read(reinterpret_cast<char*>(index->words_.data()),
          static_cast<std::streamsize>(index->words_.size() * sizeof(uint64_t)));
  if (!in.good()) return Status::IOError("truncated BFS Sharing index: " + path);
  index->build_seconds_ = timer.ElapsedSeconds();
  build_count_.fetch_add(1, std::memory_order_relaxed);
  return index;
}

BfsSharingEstimator::BfsSharingEstimator(
    const UncertainGraph& graph, std::shared_ptr<const BfsSharingIndex> index)
    : graph_(graph),
      index_(std::move(index)),
      node_bits_(graph.num_nodes()),
      visit_epoch_(graph.num_nodes(), 0),
      in_queue_epoch_(graph.num_nodes(), 0) {
  options_.index_samples = shared_index()->num_samples();
}

Result<std::unique_ptr<BfsSharingEstimator>> BfsSharingEstimator::Create(
    const UncertainGraph& graph, const BfsSharingOptions& options,
    uint64_t index_seed) {
  RELCOMP_ASSIGN_OR_RETURN(std::shared_ptr<BfsSharingIndex> index,
                           BfsSharingIndex::Build(graph, options, index_seed));
  RELCOMP_ASSIGN_OR_RETURN(std::unique_ptr<BfsSharingEstimator> estimator,
                           Create(graph, index));
  // Privately built: keep the mutable handle so PrepareForNextQuery can
  // resample in place instead of allocating fresh generations.
  estimator->owned_ = std::move(index);
  return estimator;
}

Result<std::unique_ptr<BfsSharingEstimator>> BfsSharingEstimator::Create(
    const UncertainGraph& graph, std::shared_ptr<const BfsSharingIndex> index) {
  if (index == nullptr) {
    return Status::InvalidArgument("BFS Sharing: index must not be null");
  }
  if (index->num_edges() != graph.num_edges()) {
    return Status::InvalidArgument(
        StrFormat("BFS Sharing: index has %zu edges, graph has %zu",
                  index->num_edges(), graph.num_edges()));
  }
  return std::unique_ptr<BfsSharingEstimator>(
      new BfsSharingEstimator(graph, std::move(index)));
}

Status BfsSharingEstimator::PrepareForNextQuery(uint64_t seed) {
  // Exclusive ownership (owned_ + the copy inside index_): refill the
  // worlds in place — bit-identical to a fresh build, zero allocation. This
  // is the steady state on the serving path, where every query re-arms. A
  // transient snapshot held elsewhere (e.g. a stats reader) pushes the count
  // above 2 and falls through to one fresh build; either path yields the
  // same worlds.
  if (owned_ != nullptr && owned_.use_count() == 2) {
    owned_->Resample(graph_, seed);
    return Status::OK();
  }
  // Generation swap: replicas sharing the old generation keep reading it
  // untouched; this replica alone moves to the fresh worlds. The old
  // generation is freed when its last reader lets go.
  RELCOMP_ASSIGN_OR_RETURN(std::shared_ptr<BfsSharingIndex> fresh,
                           BfsSharingIndex::Build(graph_, options_, seed));
  index_.store(std::shared_ptr<const BfsSharingIndex>(fresh),
               std::memory_order_release);
  owned_ = std::move(fresh);
  return Status::OK();
}

Result<std::shared_ptr<const PreparedGeneration>>
BfsSharingEstimator::ShareCurrentPreparedState() const {
  // The current generation, read-only. Safe to hand out mid-serving: the
  // serving path never mutates a generation, and the sharer's next inline
  // PrepareForNextQuery sees the extra reference (owned_ use_count > 2) and
  // swaps to a fresh generation instead of resampling under the reader.
  return std::shared_ptr<const PreparedGeneration>(
      new SharedBfsGeneration(shared_index()));
}

Status BfsSharingEstimator::AdoptSharedPreparedState(
    std::shared_ptr<const PreparedGeneration> state) {
  const auto* shared = dynamic_cast<const SharedBfsGeneration*>(state.get());
  if (shared == nullptr || shared->index == nullptr) {
    return Status::InvalidArgument(
        "BFS Sharing: not a shared BFS Sharing generation");
  }
  if (shared->index->num_edges() != graph_.num_edges() ||
      shared->index->num_samples() != options_.index_samples) {
    return Status::InvalidArgument(
        "BFS Sharing: shared generation shape mismatch");
  }
  // Read-only share: this replica reads the sharer's worlds and gives up
  // in-place-resample ownership (its next inline prepare builds or swaps).
  index_.store(shared->index, std::memory_order_release);
  owned_.reset();
  return Status::OK();
}

size_t BfsSharingEstimator::IndexMemoryBytes() const {
  return shared_index()->MemoryBytes();
}

Result<double> BfsSharingEstimator::DoEstimate(const ReliabilityQuery& query,
                                               const EstimateOptions& options,
                                               MemoryTracker* memory) {
  const NodeId s = query.source;
  const NodeId t = query.target;
  const uint32_t k = options.num_samples;
  if (s == t) return 1.0;

  // Working state: K-bit I_v per visited node plus bookkeeping arrays.
  ScopedAllocation working(memory, graph_.num_nodes() * 2 * sizeof(uint32_t));
  const std::shared_ptr<const BfsSharingIndex> index = shared_index();
  RELCOMP_RETURN_NOT_OK(RunSharedBfs(*index, s, /*world_offset=*/0, k,
                                     &working));

  if (visit_epoch_[t] != epoch_) return 0.0;
  return static_cast<double>(node_bits_[t].Count()) / static_cast<double>(k);
}

Result<std::vector<double>> BfsSharingEstimator::ReliabilityFromSource(
    NodeId source, uint32_t num_samples, MemoryTracker* memory) {
  if (!graph_.HasNode(source)) {
    return Status::InvalidArgument("BFS Sharing: source out of range");
  }
  // Working state: bookkeeping arrays + the result vector up front; the
  // per-node K-bit vectors are grown in as the BFS visits nodes.
  ScopedAllocation working(memory,
                           graph_.num_nodes() * 2 * sizeof(uint32_t) +
                               graph_.num_nodes() * sizeof(double));
  const std::shared_ptr<const BfsSharingIndex> index = shared_index();
  RELCOMP_RETURN_NOT_OK(RunSharedBfs(*index, source, /*world_offset=*/0,
                                     num_samples, &working));
  std::vector<double> reliability(graph_.num_nodes(), 0.0);
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    if (visit_epoch_[v] == epoch_) {
      reliability[v] = static_cast<double>(node_bits_[v].Count()) /
                       static_cast<double>(num_samples);
    }
  }
  return reliability;
}

Result<std::vector<uint32_t>> BfsSharingEstimator::SourceHitCountsInWorldRange(
    NodeId source, uint32_t world_offset, uint32_t world_count,
    MemoryTracker* memory) {
  if (!graph_.HasNode(source)) {
    return Status::InvalidArgument("BFS Sharing: source out of range");
  }
  ScopedAllocation working(memory,
                           graph_.num_nodes() * 2 * sizeof(uint32_t) +
                               graph_.num_nodes() * sizeof(uint32_t));
  std::vector<uint32_t> hits(graph_.num_nodes(), 0);
  if (world_count == 0) return hits;
  const std::shared_ptr<const BfsSharingIndex> index = shared_index();
  RELCOMP_RETURN_NOT_OK(
      RunSharedBfs(*index, source, world_offset, world_count, &working));
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    if (visit_epoch_[v] == epoch_) {
      hits[v] = static_cast<uint32_t>(node_bits_[v].Count());
    }
  }
  return hits;
}

Result<std::vector<uint32_t>> BfsSharingEstimator::EstimateSweepStratumHits(
    NodeId source, uint32_t stratum, uint32_t num_strata,
    const EstimateOptions& options) {
  if (num_strata == 0 || stratum >= num_strata) {
    return Status::InvalidArgument("sweep stratum: index out of range");
  }
  if (options.num_samples == 0 ||
      options.num_samples > shared_index()->num_samples()) {
    return Status::InvalidArgument(
        StrFormat("BFS Sharing: K=%u exceeds indexed worlds L=%u",
                  options.num_samples, shared_index()->num_samples()));
  }
  // Cancellation point: one poll per world slice (the stratum boundary the
  // engine's scheduler also polls at).
  if (options.cancel != nullptr && options.cancel->Cancelled()) {
    return options.cancel->ToStatus();
  }
  // Stratum j owns the world slice [offset, offset + count) of the budget's
  // [0, K) range; slice counts sum exactly to the whole-range counts.
  obs::ScopedSpan bfs_span(options.trace, obs::SpanKind::kBfs,
                           options.trace_parent, stratum);
  return SourceHitCountsInWorldRange(
      source, StratumSampleOffset(options.num_samples, num_strata, stratum),
      StratumSampleCount(options.num_samples, num_strata, stratum),
      options.memory);
}

Status BfsSharingEstimator::RunSharedBfs(const BfsSharingIndex& index, NodeId s,
                                         uint32_t world_offset, uint32_t k,
                                         ScopedAllocation* working) {
  if (k == 0 || world_offset > index.num_samples() ||
      k > index.num_samples() - world_offset) {
    return Status::InvalidArgument(
        StrFormat("BFS Sharing: world range [%u, %u) exceeds indexed "
                  "worlds L=%u",
                  world_offset, world_offset + k, index.num_samples()));
  }
  ++epoch_;
  auto visit = [&](NodeId v) {
    visit_epoch_[v] = epoch_;
    BitVector& bv = node_bits_[v];
    bv.Resize(k);
    bv.ClearAll();
    if (working != nullptr) working->Grow(bv.MemoryBytes());
  };
  auto visited = [&](NodeId v) { return visit_epoch_[v] == epoch_; };

  visit(s);
  node_bits_[s].SetAll();  // I_s = [1 1 ... 1]

  // Cascading update (Algorithm 3): fix-point propagation of new worlds
  // through already-visited nodes.
  std::deque<NodeId> cascade;
  auto CascadeFrom = [&](NodeId from) {
    cascade.clear();
    cascade.push_back(from);
    while (!cascade.empty()) {
      const NodeId w = cascade.front();
      cascade.pop_front();
      for (const AdjEntry& a : graph_.OutEdges(w)) {
        if (!visited(a.neighbor)) continue;
        if (node_bits_[a.neighbor].OrWithAndWords(
                node_bits_[w], index.edge_words(a.edge),
                index.words_per_edge(), world_offset)) {
          cascade.push_back(a.neighbor);
        }
      }
    }
  };

  // Main worklist BFS (Algorithm 2). No early termination even if t gains
  // worlds early: cascading updates must run to completion.
  std::deque<NodeId> worklist;
  for (const AdjEntry& a : graph_.OutEdges(s)) {
    if (in_queue_epoch_[a.neighbor] != epoch_) {
      in_queue_epoch_[a.neighbor] = epoch_;
      worklist.push_back(a.neighbor);
    }
  }
  while (!worklist.empty()) {
    const NodeId v = worklist.front();
    worklist.pop_front();
    if (visited(v)) continue;
    visit(v);
    BitVector& iv = node_bits_[v];
    for (const AdjEntry& a : graph_.InEdges(v)) {
      if (visited(a.neighbor)) {
        iv.OrWithAndWords(node_bits_[a.neighbor], index.edge_words(a.edge),
                          index.words_per_edge(), world_offset);
      }
    }
    for (const AdjEntry& a : graph_.OutEdges(v)) {
      if (!visited(a.neighbor)) {
        if (in_queue_epoch_[a.neighbor] != epoch_) {
          in_queue_epoch_[a.neighbor] = epoch_;
          worklist.push_back(a.neighbor);
        }
      } else if (node_bits_[a.neighbor].OrWithAndWords(
                     iv, index.edge_words(a.edge), index.words_per_edge(),
                     world_offset)) {
        CascadeFrom(a.neighbor);
      }
    }
  }
  return Status::OK();
}

Status BfsSharingEstimator::SaveToFile(const std::string& path) const {
  return shared_index()->SaveToFile(path);
}

Result<std::unique_ptr<BfsSharingEstimator>> BfsSharingEstimator::LoadFromFile(
    const UncertainGraph& graph, const std::string& path) {
  RELCOMP_ASSIGN_OR_RETURN(std::shared_ptr<BfsSharingIndex> index,
                           BfsSharingIndex::LoadFromFile(graph, path));
  RELCOMP_ASSIGN_OR_RETURN(std::unique_ptr<BfsSharingEstimator> estimator,
                           Create(graph, index));
  estimator->owned_ = std::move(index);
  return estimator;
}

}  // namespace relcomp
