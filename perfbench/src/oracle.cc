#include "oracle.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <unordered_set>

#include "common/rng.h"
#include "reliability/estimator_factory.h"

namespace perfbench {

namespace {

constexpr uint32_t kReferenceSamples = 10000;
constexpr double kZ = 3.0;
/// err_ratio counts answers whose reference saw at least this many hits and
/// misses: below that an answer at budget K is mostly an exact 0 or 1, and
/// its error says little about bias.
constexpr double kMinReferenceHits = 10.0;
constexpr uint64_t kReferenceSeed = 0x7265666572656e63ULL;  // "referenc"

/// Sampling variance R (1 − R) / k of an estimate at budget k, floored at
/// one hit's worth, so an answer whose reference saw no hit still has an
/// error bar that one hit does not exceed.
double Variance(double r, uint32_t k) {
  const double kd = static_cast<double>(k);
  return std::max(r * (1.0 - r), 1.0 / kd) / kd;
}

}  // namespace

OracleReport RunOracle(const relcomp::UncertainGraph& graph,
                       const QueryStream& stream,
                       const AnswerLog& answers, size_t sample_size,
                       uint32_t budget, size_t threads, double perturb) {
  std::vector<uint64_t> sample;
  std::unordered_set<uint64_t> seen;
  for (uint64_t i = 0; i < AnswerLog::kHead && sample.size() < sample_size;
       ++i) {
    const Answer* answer = answers.Find(i);
    if (answer == nullptr || !answer->answered) continue;
    const relcomp::EngineQuery query = stream.At(i);
    if (relcomp::IsSweepWorkload(query.workload)) continue;
    if (seen.insert(relcomp::HashWorkloadQuery(0, query)).second) {
      sample.push_back(i);
    }
  }

  std::vector<double> reference(sample.size(), 0.0);
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  const auto worker = [&] {
    auto estimator =
        relcomp::MakeEstimator(relcomp::EstimatorKind::kMonteCarlo, graph);
    if (!estimator.ok()) {
      failed.store(true);
      return;
    }
    for (size_t s = next.fetch_add(1); s < sample.size();
         s = next.fetch_add(1)) {
      const relcomp::EngineQuery query = stream.At(sample[s]);
      relcomp::EstimateOptions options;
      options.num_samples = kReferenceSamples;
      options.seed = relcomp::HashCombineSeed(kReferenceSeed, sample[s]);
      if (query.workload == relcomp::WorkloadKind::kDistance) {
        auto r = (*estimator)->EstimateDistanceConstrained(
            query.AsSt(), query.max_hops, options);
        if (!r.ok()) failed.store(true);
        reference[s] = r.ok() ? *r : 0.0;
      } else {
        auto r = (*estimator)->Estimate(query.AsSt(), options);
        if (!r.ok()) failed.store(true);
        reference[s] = r.ok() ? r->reliability : 0.0;
      }
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::max<size_t>(threads, 1); ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& thread : pool) thread.join();

  OracleReport report;
  report.sample = sample.size();
  double squared_z = 0.0;
  for (size_t s = 0; s < sample.size(); ++s) {
    const Answer& answer = *answers.Find(sample[s]);
    if (answer.num_samples != budget) ++report.budget_mismatches;
    const double r_ref = reference[s];
    const double error = answer.reliability + perturb - r_ref;
    const double z2 = error * error / (Variance(r_ref, budget) +
                                       Variance(r_ref, kReferenceSamples));
    if (z2 > kZ * kZ) ++report.violations;
    const double hits = r_ref * kReferenceSamples;
    if (hits >= kMinReferenceHits &&
        kReferenceSamples - hits >= kMinReferenceHits) {
      squared_z += z2;
      ++report.informative;
    }
  }
  report.err_ratio =
      report.informative == 0
          ? 0.0
          : std::sqrt(squared_z / static_cast<double>(report.informative));
  // Binomial allowance: the expected count of |Z| > z draws plus three
  // standard deviations, and two for the normal approximation's error on
  // answers with few hits.
  const double p = std::erfc(kZ / std::sqrt(2.0));
  const double n = static_cast<double>(report.sample);
  report.allowed_violations = n * p + 3.0 * std::sqrt(n * p * (1.0 - p)) + 2.0;
  report.pass = !failed.load() && report.sample > 0 &&
                static_cast<double>(report.violations) <=
                    report.allowed_violations;
  return report;
}

}  // namespace perfbench
