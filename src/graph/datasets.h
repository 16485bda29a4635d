#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "graph/uncertain_graph.h"

namespace relcomp {

/// \brief The six paper datasets (Table 2), reproduced as synthetic analogues.
enum class DatasetId {
  kLastFm = 0,     ///< musical social network; P = 1/outdeg
  kNetHept,        ///< HEP-TH co-authorship; P uniform {0.1, 0.01, 0.001}
  kAsTopology,     ///< CAIDA AS links; P = snapshot presence ratio
  kDblp02,         ///< DBLP co-authorship; P = 1 - exp(-c/5)  (mean ~0.33)
  kDblp005,        ///< same topology;      P = 1 - exp(-c/20) (mean ~0.11)
  kBioMine,        ///< biological concept graph; P = product of 3 criteria
};

inline constexpr int kNumDatasets = 6;

/// Short lowercase name ("lastfm", "nethept", ...), used in CLI flags and CSV.
const char* DatasetName(DatasetId id);
/// Paper-style display name ("LastFM", "DBLP 0.2", ...).
const char* DatasetDisplayName(DatasetId id);

/// All six ids, in the paper's Table 2 order.
std::vector<DatasetId> AllDatasetIds();

/// \brief Graph sizes per scale. The paper's server-scale runs are
/// impractical on a laptop for DBLP/BioMine; scales keep every experiment's
/// *shape* while bounding wall-clock time.
enum class Scale {
  kTiny = 0,  ///< a few hundred nodes; unit/integration tests
  kSmall,     ///< a few thousand nodes; default benchmark scale
  kMedium,    ///< paper-size for the small datasets; tens of thousands else
  kLarge,     ///< paper-size AS topology; ~10^5 nodes for DBLP/BioMine
};

/// Parses "tiny" / "small" / "medium" / "large".
Result<Scale> ParseScale(const std::string& name);
/// Reads RELCOMP_SCALE from the environment (default kSmall).
Scale ScaleFromEnv();
const char* ScaleName(Scale scale);

/// \brief A generated dataset: the uncertain graph plus identification.
struct Dataset {
  DatasetId id = DatasetId::kLastFm;
  Scale scale = Scale::kSmall;
  std::string name;
  UncertainGraph graph;
};

/// Builds the analogue of `id` at `scale`. Deterministic in `seed`; the two
/// DBLP variants share topology and collaboration counts for equal seeds,
/// exactly like the paper derives both from one graph.
Result<Dataset> MakeDataset(DatasetId id, Scale scale, uint64_t seed);

/// Table 2 analogue for a set of datasets (one row per dataset).
std::string DatasetTable(const std::vector<Dataset>& datasets);

}  // namespace relcomp
