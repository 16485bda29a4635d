#include "workload.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/rng.h"
#include "eval/query_gen.h"

namespace perfbench {

using relcomp::EngineQuery;

namespace {

/// st-distinct sends every pair at these hop distances once. The small dblp02
/// analogue has ~43k pairs at distance 2, fewer than one run sends, so
/// distance 3 (~89k more) is included; a run that exhausts the pool ends its
/// timed phase early and says so.
constexpr uint32_t kStDistinctMinHops = 2;
constexpr uint32_t kStDistinctMaxHops = 3;
/// The kind mix and parameters the repository's workload generator uses by
/// default (eval/query_gen.h): st 0.4, top-k 0.2, reliable-set 0.2, distance
/// 0.2; k 10, eta 0.2, max_hops 4.
const relcomp::MixedWorkloadOptions kRepoMix;
/// mixed-zipf's hot catalogue is the one examples/reliability_server.cpp
/// replays: GenerateMixedWorkload over 100 hop-2 pairs, 200 queries with the
/// default parameters plus 200 with k 5 and eta 0.5, asked with popularity
/// 1/rank.
constexpr uint32_t kCataloguePairs = 100;
constexpr uint32_t kCatalogueQueries = 200;
/// mixed-zipf: share of queries (per 10,000) in the cold fringe, which the
/// caches cannot have seen. An assumption, not traffic data: it matches the
/// ~97% of queries served without compute when the workload was first sized.
/// A pure 1/rank stream would miss less and less as a run goes on, so its
/// compute share (and p99) would depend on how many queries the engine got
/// through; a fixed fringe keeps them the same at any speed.
constexpr uint64_t kColdPerTenThousand = 300;
/// Cold top-k asks k in [1, kColdMaxK], cold reliable-set eta in [0.2, 1):
/// new parameters on a swept source, so the answer misses the result cache
/// and is derived from the cached sweep. Assumed ranges, no larger than the
/// catalogue's payloads need.
constexpr uint64_t kColdMaxK = 50;
/// bfs-restart: GenerateQueries draws this many distinct hop-2 pairs, and the
/// stream sends as many queries, each new to the caches: an s-t query takes
/// the next unused pair, a sweep-kind query the next unused source. Were
/// queries drawn with replacement (as GenerateMixedWorkload draws them),
/// repeats, and with them cache hits, would grow as a run went on, so qps
/// would climb through the run and depend on how far it got. A 30 s run
/// sends about 3,600 queries; the ~4,000 sources wrap after about 8,000.
constexpr uint32_t kBfsRestartPairs = 20000;

/// Domain separators so the rank, kind and parameter draws of one index are
/// independent.
constexpr uint64_t kRankTag = 0x72616e6bULL;   // "rank"
constexpr uint64_t kKindTag = 0x6b696e64ULL;   // "kind"
constexpr uint64_t kParamTag = 0x7061726dULL;  // "parm"
constexpr uint64_t kColdTag = 0x636f6c64ULL;   // "cold"
constexpr uint64_t kMixTag = 0x6d697820ULL;    // "mix "

double UnitDouble(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

uint64_t Draw(uint64_t seed, uint64_t tag, uint64_t index) {
  return relcomp::HashCombineSeed(relcomp::HashCombineSeed(seed, tag), index);
}

/// Every (s, t) with BFS distance in [min_hops, max_hops], shuffled.
std::vector<relcomp::ReliabilityQuery> AllPairsAtDistance(
    const relcomp::UncertainGraph& graph, uint32_t min_hops,
    uint32_t max_hops, uint64_t seed) {
  std::vector<relcomp::ReliabilityQuery> pairs;
  std::vector<uint32_t> depth(graph.num_nodes());
  std::vector<relcomp::NodeId> seen(graph.num_nodes(), relcomp::kInvalidNode);
  std::vector<relcomp::NodeId> queue;
  for (relcomp::NodeId s = 0; s < graph.num_nodes(); ++s) {
    queue.assign(1, s);
    seen[s] = s;
    depth[s] = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
      const relcomp::NodeId v = queue[head];
      if (depth[v] >= min_hops) pairs.push_back({s, v});
      if (depth[v] == max_hops) continue;
      for (const relcomp::AdjEntry& entry : graph.OutEdges(v)) {
        if (seen[entry.neighbor] == s) continue;
        seen[entry.neighbor] = s;
        depth[entry.neighbor] = depth[v] + 1;
        queue.push_back(entry.neighbor);
      }
    }
  }
  relcomp::Rng rng(seed);
  for (size_t i = pairs.size(); i > 1; --i) {
    std::swap(pairs[i - 1], pairs[rng.UniformInt(i)]);
  }
  return pairs;
}

/// A workload kind drawn by kRepoMix's weights from a uniform `u` in [0, 1),
/// distance left out unless `with_distance`.
relcomp::WorkloadKind RepoMixKind(double u, bool with_distance) {
  const double weights[relcomp::kNumWorkloadKinds] = {
      kRepoMix.st_weight, kRepoMix.top_k_weight, kRepoMix.reliable_set_weight,
      with_distance ? kRepoMix.distance_weight : 0.0};
  double total = 0.0;
  for (double w : weights) total += w;
  double draw = u * total;
  size_t kind = 0;
  while (kind + 1 < relcomp::kNumWorkloadKinds && draw >= weights[kind]) {
    draw -= weights[kind];
    ++kind;
  }
  return static_cast<relcomp::WorkloadKind>(kind);
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  using relcomp::DatasetId;
  using relcomp::EstimatorKind;
  // name, dataset, kind, K, strata, persist, warm-up queries, min timed
  // calls, rss read at calls, oracle sample.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"st-distinct", DatasetId::kDblp02, EstimatorKind::kMonteCarlo, 1000, 1,
       false, 2000, 1000, 10000, 1500},
      {"mixed-zipf", DatasetId::kDblp02, EstimatorKind::kMonteCarlo, 1000, 8,
       false, 100000, 1000, 200000, 1500},
      // Half of bfs-restart's queries are scalar: with the warm-up's, 3200
      // calls hold the oracle's 1500 with room to spare. Only about a
      // quarter of them are informative, and err_ratio's spread across
      // seeds shrinks with their number.
      {"bfs-restart", DatasetId::kNetHept, EstimatorKind::kBfsSharing, 1000, 1,
       true, 200, 3200, 500, 1500},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

relcomp::Result<QueryStream> QueryStream::Make(
    const WorkloadSpec& spec, const relcomp::UncertainGraph& graph,
    uint64_t seed) {
  QueryStream stream;
  stream.seed_ = seed;
  if (spec.name == "bfs-restart") {
    relcomp::QueryGenOptions gen;
    gen.num_pairs = kBfsRestartPairs;
    gen.max_attempts = kBfsRestartPairs * 8;
    gen.seed = seed;
    RELCOMP_ASSIGN_OR_RETURN(const std::vector<relcomp::ReliabilityQuery> pairs,
                             relcomp::GenerateQueries(graph, gen));
    std::vector<relcomp::NodeId> sources;
    std::unordered_set<relcomp::NodeId> seen;
    for (const relcomp::ReliabilityQuery& pair : pairs) {
      if (seen.insert(pair.source).second) sources.push_back(pair.source);
    }
    size_t next_pair = 0;
    size_t next_source = 0;
    for (uint64_t i = 0; i < pairs.size(); ++i) {
      // BFS Sharing answers no distance query, so that kind is left out.
      const relcomp::NodeId source = sources[next_source % sources.size()];
      switch (RepoMixKind(UnitDouble(Draw(seed, kMixTag, i)), false)) {
        case relcomp::WorkloadKind::kTopK:
          stream.catalogue_.push_back(EngineQuery::TopK(source, kRepoMix.k));
          ++next_source;
          break;
        case relcomp::WorkloadKind::kReliableSet:
          stream.catalogue_.push_back(
              EngineQuery::ReliableSet(source, kRepoMix.eta));
          ++next_source;
          break;
        default: {
          const relcomp::ReliabilityQuery& pair = pairs[next_pair++];
          stream.catalogue_.push_back(EngineQuery::St(pair.source, pair.target));
        }
      }
    }
    stream.shape_ = Shape::kList;
    stream.size_ = stream.catalogue_.size();
    return stream;
  }
  // st-distinct sends these pairs; mixed-zipf's cold scalars take them.
  stream.fresh_pairs_ = AllPairsAtDistance(graph, kStDistinctMinHops,
                                           kStDistinctMaxHops, seed);
  if (stream.fresh_pairs_.empty()) {
    return relcomp::Status::NotFound("no s-t pair at hop distance 2-3");
  }
  if (spec.name == "st-distinct") {
    stream.shape_ = Shape::kDistinct;
    stream.size_ = stream.fresh_pairs_.size();
    return stream;
  }
  relcomp::MixedWorkloadOptions mix;
  mix.pairs.num_pairs = kCataloguePairs;
  mix.pairs.seed = seed;
  mix.num_queries = kCatalogueQueries;
  mix.seed = relcomp::HashCombineSeed(seed, kMixTag);
  RELCOMP_ASSIGN_OR_RETURN(stream.catalogue_,
                           relcomp::GenerateMixedWorkload(graph, mix));
  // A second parameterization of the same sources, served from the sweeps
  // the first one ran.
  mix.k = 5;
  mix.eta = 0.5;
  mix.seed = relcomp::HashCombineSeed(seed, kMixTag + 1);
  RELCOMP_ASSIGN_OR_RETURN(const std::vector<EngineQuery> second,
                           relcomp::GenerateMixedWorkload(graph, mix));
  stream.catalogue_.insert(stream.catalogue_.end(), second.begin(),
                           second.end());
  std::unordered_set<relcomp::NodeId> swept;
  for (const EngineQuery& query : stream.catalogue_) {
    if (relcomp::IsSweepWorkload(query.workload) &&
        swept.insert(query.source).second) {
      stream.swept_sources_.push_back(query.source);
    }
  }
  if (stream.swept_sources_.empty()) {
    return relcomp::Status::NotFound("no sweep-kind query in the catalogue");
  }
  stream.zipf_cdf_.resize(stream.catalogue_.size());
  double total = 0.0;
  for (size_t r = 0; r < stream.catalogue_.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    stream.zipf_cdf_[r] = total;
  }
  for (double& c : stream.zipf_cdf_) c /= total;
  stream.shape_ = Shape::kZipf;
  stream.size_ = std::numeric_limits<uint64_t>::max();
  return stream;
}

EngineQuery QueryStream::ColdItem(uint64_t index) const {
  // The kind follows the repository's mix. Scalar kinds ask a fresh pair,
  // taken by stream index: distinct until the index wraps the pool. Sweep
  // kinds ask a swept source with a new parameter, so every cold answer
  // costs one estimate or one derivation and no cold sweep runs: the memory
  // a run takes does not grow with the sweeps it serves.
  const uint64_t param = Draw(seed_, kParamTag, index);
  const relcomp::ReliabilityQuery& fresh =
      fresh_pairs_[index % fresh_pairs_.size()];
  const relcomp::NodeId swept = swept_sources_[param % swept_sources_.size()];
  const uint64_t pick = param / swept_sources_.size();
  switch (RepoMixKind(UnitDouble(Draw(seed_, kKindTag, index)), true)) {
    case relcomp::WorkloadKind::kSt:
      return EngineQuery::St(fresh.source, fresh.target);
    case relcomp::WorkloadKind::kTopK:
      return EngineQuery::TopK(swept,
                               static_cast<uint32_t>(1 + pick % kColdMaxK));
    case relcomp::WorkloadKind::kReliableSet:
      return EngineQuery::ReliableSet(
          swept, kRepoMix.eta + (1.0 - kRepoMix.eta) *
                                    UnitDouble(Draw(seed_, kParamTag + 1,
                                                    index)));
    case relcomp::WorkloadKind::kDistance:
      return EngineQuery::Distance(fresh.source, fresh.target,
                                   kRepoMix.max_hops);
  }
  return EngineQuery{};
}

EngineQuery QueryStream::At(uint64_t index) const {
  switch (shape_) {
    case Shape::kDistinct: {
      const relcomp::ReliabilityQuery& pair = fresh_pairs_[index];
      return EngineQuery::St(pair.source, pair.target);
    }
    case Shape::kZipf: {
      if (Draw(seed_, kColdTag, index) % 10000 < kColdPerTenThousand) {
        return ColdItem(index);
      }
      const double u = UnitDouble(Draw(seed_, kRankTag, index));
      const auto it = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
      const size_t rank = std::min<size_t>(
          static_cast<size_t>(it - zipf_cdf_.begin()), catalogue_.size() - 1);
      return catalogue_[rank];
    }
    case Shape::kList:
      return catalogue_[index];
  }
  return EngineQuery{};
}

}  // namespace perfbench
