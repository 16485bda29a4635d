// perfbench: the repository's serving benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--dump-queries <n>] [--perturb-answers <x>]
//             [--engine-samples <k>]
//
// Serves one workload's generated query stream to an in-process QueryEngine
// from closed-loop client threads, checks every answer, and prints the
// metrics as "metric" lines followed by one JSON object on the last line.
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
// traced windows, replays the work against bare layer objects and reports
// the per-layer metrics. See README.md for the metric -> layer -> workload
// map.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "engine/query_engine.h"
#include "oracle.h"
#include "persist/store.h"
#include "replay.h"
#include "serve.h"
#include "spans.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using relcomp::EngineQuery;
using relcomp::QueryEngine;

/// Engine master seed: fixed, so the engine receives only the generated
/// queries as varying input.
constexpr uint64_t kEngineSeed = 0x5EED;
/// Set-up (MakeDataset, then QueryEngine::Create on that graph: what a server
/// does before it can answer) is timed in bursts, each of at least
/// kSetupMinRepeats set-ups and on until kSetupBurstSeconds have passed or
/// kSetupMaxRepeats were made. An untraced run times one burst before the
/// warm-up and one after the timed phase, and setup_s is the median of both:
/// the host's speed drifts over seconds, and a single burst would catch one
/// moment of it.
constexpr int kSetupMinRepeats = 15;
constexpr int kSetupMaxRepeats = 2000;
constexpr double kSetupBurstSeconds = 2.0;
/// Trace window pairs: eight windows, untraced and traced in ABBA order.
constexpr int kTraceWindows = 4;
/// The timed phase of an untraced run is cut into slices of at least
/// kSliceSeconds and kSliceMinCalls calls (p99 then has ten samples beyond
/// it). qps is the upper quartile of the slices' throughputs and each
/// latency the lower quartile of the slices' quantiles: the host steals
/// CPU from this VM in bursts of 10-40 s, which only ever slow a slice, and
/// a burst that covers less than three quarters of a run leaves its figures
/// as they are.
constexpr double kSliceSeconds = 1.0;
constexpr uint64_t kSliceMinCalls = 1000;
constexpr double kQpsQuantile = 0.75;
constexpr double kLatencyQuantile = 0.25;
constexpr auto kFlushPeriod = std::chrono::milliseconds(250);

const char* const kStages[] = {"queue_wait", "cache_probe", "prepare",
                               "stratum",    "merge",       "publish",
                               "derive",     "sweep_wait"};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".bench_build/perfbench-out";
  long dump_queries = -1;
  /// Added to every engine answer the oracle checks: a deliberately wrong
  /// answer, to show the oracle fails the run.
  double perturb_answers = 0.0;
  /// > 0: the engine samples this many worlds per query while the oracle
  /// still judges it against the workload's budget: a hidden budget cut, to
  /// show the oracle fails the run.
  long engine_samples = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--dump-queries") {
      args->dump_queries = std::strtol(value, &end, 10);
    } else if (flag == "--perturb-answers") {
      args->perturb_answers = std::strtod(value, &end);
    } else if (flag == "--engine-samples") {
      args->engine_samples = std::strtol(value, &end, 10);
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  if (argc % 2 == 0 || args->workload.empty()) return false;
  if (args->dump_queries >= 0) return true;
  return args->seconds > 0.0 && (args->trace == 0 || args->trace == 1) &&
         args->engine_samples >= 0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// The figures of one run: metrics, which the closing JSON object carries,
/// and notes, which are only printed as "metric" lines before it.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      finite_ = false;
      value = 0.0;
    }
    metrics_.push_back({name, value, unit, samples});
  }
  void Note(const std::string& name, double value, const std::string& unit,
            uint64_t samples) {
    notes_.push_back({name, value, unit, samples});
  }

  int Print(bool correct, uint64_t attempted, uint64_t failed) const {
    correct = correct && finite_;
    for (const auto* list : {&metrics_, &notes_}) {
      for (const Metric& m : *list) {
        std::printf("metric %-40s %.6g %s (n=%llu)\n", m.name.c_str(), m.value,
                    m.unit.c_str(), static_cast<unsigned long long>(m.samples));
      }
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) json += ", ";
      json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
  bool finite_ = true;
};

double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// Cumulative engine counters and stage histograms at one instant; the
/// difference of two brackets one phase.
struct EngineReading {
  relcomp::EngineStatsSnapshot stats;
  std::map<std::string, relcomp::obs::HistogramSnapshot> stages;
};

EngineReading ReadEngine(const QueryEngine& engine) {
  EngineReading reading;
  reading.stats = engine.StatsSnapshot();
  for (const char* stage : kStages) {
    reading.stages[stage] =
        engine.metrics()
            .GetHistogram("engine_stage_latency_ns", "stage", stage)
            ->Snapshot();
  }
  return reading;
}

/// Properties of the queries a phase sent (stream indices [first, end)).
struct StreamProperties {
  double repeat_share = 0.0;
  double sweep_share = 0.0;
  uint64_t distinct_sources = 0;
  uint64_t queries = 0;
};

StreamProperties MeasureStream(const QueryStream& stream, uint64_t first,
                               uint64_t end) {
  StreamProperties props;
  std::vector<uint64_t> keys;
  std::unordered_set<relcomp::NodeId> sources;
  uint64_t sweeps = 0;
  for (uint64_t i = first; i < end; ++i) {
    const EngineQuery query = stream.At(i);
    keys.push_back(relcomp::HashWorkloadQuery(0, query));
    sources.insert(query.source);
    if (relcomp::IsSweepWorkload(query.workload)) ++sweeps;
  }
  props.queries = keys.size();
  std::sort(keys.begin(), keys.end());
  const uint64_t distinct = static_cast<uint64_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin());
  props.repeat_share =
      Share(static_cast<double>(props.queries - distinct), props.queries);
  props.sweep_share = Share(static_cast<double>(sweeps), props.queries);
  props.distinct_sources = sources.size();
  return props;
}

/// Removes a run's scratch directory when the run ends, after the engine
/// that writes into it (declare it first).
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

int Fail(const std::string& what, const relcomp::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return 1;
}

/// Times one burst of set-ups (see kSetupMinRepeats), each from a freshly
/// made graph to an engine that can answer. When the workload persists, each
/// is a restart from a snapshot published, untimed, into
/// options.persist_dir first.
relcomp::Status TimeSetUp(const WorkloadSpec& spec,
                          const relcomp::UncertainGraph& graph,
                          const relcomp::EngineOptions& options,
                          std::vector<double>* seconds) {
  if (!options.persist_dir.empty()) {
    RELCOMP_RETURN_NOT_OK(QueryEngine::Create(graph, options).status());
  }
  const relcomp::StopwatchNs total;
  for (int r = 0; r < kSetupMaxRepeats; ++r) {
    if (r >= kSetupMinRepeats && total.ElapsedSeconds() >= kSetupBurstSeconds) {
      break;
    }
    const relcomp::StopwatchNs clock;
    RELCOMP_ASSIGN_OR_RETURN(
        const relcomp::Dataset dataset,
        relcomp::MakeDataset(spec.dataset, relcomp::Scale::kSmall,
                             kDatasetSeed));
    // Destroyed, untimed, before the graph it serves.
    RELCOMP_ASSIGN_OR_RETURN(const std::unique_ptr<QueryEngine> engine,
                             QueryEngine::Create(dataset.graph, options));
    seconds->push_back(clock.ElapsedSeconds());
  }
  return relcomp::Status::OK();
}

/// Engine-side per-layer metrics: registry and stats deltas over the timed
/// phase, and the client's view of each call.
void AddEngineMetrics(Report& report, const EngineReading& before,
                      const EngineReading& after, PhaseResult& phase,
                      size_t workers) {
  const relcomp::EngineStatsSnapshot& s0 = before.stats;
  const relcomp::EngineStatsSnapshot& s1 = after.stats;
  const uint64_t queries = s1.queries - s0.queries;
  const auto share = [&](uint64_t part) {
    return Share(static_cast<double>(part), static_cast<double>(queries));
  };
  const auto sweep_queries = [](const relcomp::EngineStatsSnapshot& s) {
    return s.queries_of(relcomp::WorkloadKind::kTopK) +
           s.queries_of(relcomp::WorkloadKind::kReliableSet);
  };
  const auto stage = [&](const char* name) {
    const relcomp::obs::HistogramSnapshot& a = before.stages.at(name);
    const relcomp::obs::HistogramSnapshot& b = after.stages.at(name);
    return std::pair<uint64_t, double>(b.count - a.count,
                                       static_cast<double>(b.sum - a.sum));
  };
  const double busy_ns = phase.busy_seconds * 1e9;
  double stage_ns = 0.0;
  for (const char* name : kStages) {
    // Queue wait passes before a worker takes the query: not busy time.
    if (std::string_view(name) != "queue_wait") stage_ns += stage(name).second;
  }
  const auto [prepare_calls, prepare_ns] = stage("prepare");
  const uint64_t sweeps = sweep_queries(s1) - sweep_queries(s0);

  report.Add("reliability.prepare_calls", static_cast<double>(prepare_calls),
             "count", prepare_calls);
  report.Add("reliability.prepare_busy_share", Share(prepare_ns, busy_ns),
             "ratio", prepare_calls);
  report.Add("engine.result_hit_share", share(s1.cache.hits - s0.cache.hits),
             "ratio", queries);
  report.Add("engine.coalesced_share", share(s1.coalesced - s0.coalesced),
             "ratio", queries);
  report.Add("engine.executed_share", share(s1.executed - s0.executed),
             "ratio", queries);
  report.Add("engine.sweep_hit_share",
             Share(static_cast<double>(s1.sweep_hits - s0.sweep_hits),
                   static_cast<double>(sweeps)),
             "ratio", sweeps);
  report.Add("engine.sweep_executed",
             static_cast<double>(s1.sweep_executed - s0.sweep_executed),
             "count", queries);
  report.Add("engine.strata_stolen",
             static_cast<double>(s1.strata_stolen - s0.strata_stolen), "count",
             s1.strata_executed - s0.strata_executed);
  report.Add("engine.overhead_us_p50", Quantile(phase.overhead_ns, 0.50) * 1e-3,
             "us", phase.overhead_ns.size());
  report.Add("engine.overhead_us_p99", Quantile(phase.overhead_ns, 0.99) * 1e-3,
             "us", phase.overhead_ns.size());
  report.Add("engine.worker_busy_share",
             Share(phase.busy_seconds,
                   phase.elapsed_seconds * static_cast<double>(workers)),
             "ratio", phase.attempted);
  report.Add("engine.prebuilt_used_share",
             Share(static_cast<double>(s1.prebuilt_used - s0.prebuilt_used),
                   static_cast<double>(prepare_calls)),
             "ratio", prepare_calls);
  report.Add("engine.stage_coverage", Share(stage_ns, busy_ns), "ratio",
             queries);
}

/// Per-layer metrics taken from the spans of the replay and the probes.
void AddSpanMetrics(Report& report, const std::vector<SpanSummary>& spans,
                    const ReplayReport& replay) {
  const auto span = [&](SpanName name) -> const SpanSummary& {
    return spans[static_cast<size_t>(name)];
  };
  // Self-time median of `name`, scaled (e.g. ns -> us, or per item).
  const auto add = [&](const char* metric, SpanName name, double scale,
                       const char* unit) {
    report.Add(metric, span(name).self_p50_ns * scale, unit, span(name).count);
  };
  add("reliability.estimate_us_p50", SpanName::kEstimate, 1e-3, "us");
  add("reliability.sweep_ms_p50", SpanName::kSweep, 1e-6, "ms");
  add("reliability.distance_us_p50", SpanName::kDistance, 1e-3, "us");
  add("reliability.prepare_ms_p50", SpanName::kPrepare, 1e-6, "ms");
  add("reliability.index_build_s", SpanName::kIndexBuild, 1e-9, "s");
  add("engine.result_cache.lookup_ns_p50", SpanName::kResultLookup, 1.0, "ns");
  add("engine.result_cache.insert_ns_p50", SpanName::kResultInsert, 1.0, "ns");
  add("engine.sweep_cache.lookup_ns_p50", SpanName::kSweepLookup, 1.0, "ns");
  add("persist.snapshot_open_ms", SpanName::kSnapshotOpen, 1e-6, "ms");
  add("persist.flush_ms_p50", SpanName::kFlush, 1e-6, "ms");
  report.Add("common.crc32c_gbps",
             Share(static_cast<double>(replay.crc_bytes),
                   span(SpanName::kCrc32c).self_p50_ns),
             "GB/s", span(SpanName::kCrc32c).count);
  add("common.bernoulli_ns_per_bit", SpanName::kFillBernoulli,
      1.0 / static_cast<double>(replay.bernoulli_bits), "ns");
  add("obs.histogram_record_ns", SpanName::kHistogramRecord,
      1.0 / static_cast<double>(replay.histogram_batch), "ns");
  add("graph.make_dataset_s", SpanName::kMakeDataset, 1e-9, "s");
  add("graph.adjacency_scan_ns_per_edge", SpanName::kAdjacencyScan,
      1.0 / static_cast<double>(replay.scanned_edges), "ns");
  add("eval.generate_queries_us_per_pair", SpanName::kGenerateQueries,
      1e-3 / static_cast<double>(replay.generated_pairs), "us");
}

/// Snapshot file the replay times SnapshotReader::Open on: the engine's own,
/// or for an index-free workload a graph-only one written to `dir`.
relcomp::Result<std::string> SnapshotForProbe(
    const QueryEngine& engine, const relcomp::UncertainGraph& graph,
    const std::string& dir) {
  if (engine.persist_store() != nullptr) {
    return engine.persist_store()->snapshot_path();
  }
  RELCOMP_ASSIGN_OR_RETURN(auto store,
                           relcomp::PersistentStore::Open(dir, nullptr));
  RELCOMP_RETURN_NOT_OK(store->WriteSnapshot(graph, engine.options().factory,
                                             nullptr, nullptr));
  return store->snapshot_path();
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const bool traced_run = args.trace == 1;
  SpanLog setup_log(0, 16);
  const uint64_t dataset_ns = relcomp::StopwatchNs::Now();
  auto dataset = relcomp::MakeDataset(spec->dataset, relcomp::Scale::kSmall,
                                      kDatasetSeed);
  if (!dataset.ok()) return Fail("MakeDataset", dataset.status());
  setup_log.Add(SpanName::kMakeDataset, kNoSpan, kNoQuery, dataset_ns,
                relcomp::StopwatchNs::Now());
  const relcomp::UncertainGraph& graph = dataset->graph;
  auto made = QueryStream::Make(*spec, graph, args.seed);
  if (!made.ok()) return Fail("query stream", made.status());
  const QueryStream stream = made.MoveValue();

  if (args.dump_queries >= 0) {
    const uint64_t n =
        std::min(static_cast<uint64_t>(args.dump_queries), stream.size());
    for (uint64_t i = 0; i < n; ++i) {
      std::printf("%s\n", stream.At(i).Describe().c_str());
    }
    return 0;
  }

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    return Fail("create " + args.out_dir,
                relcomp::Status::IOError(ec.message()));
  }
  // Declared before the engine, so it is removed after the engine's last
  // journal flush.
  const ScratchDir scratch(args.out_dir + "/" + std::string(spec->name) + "-" +
                           std::to_string(::getpid()));

  const size_t width =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  relcomp::EngineOptions options;
  options.num_threads = width;
  options.kind = spec->kind;
  options.num_samples = args.engine_samples > 0
                            ? static_cast<uint32_t>(args.engine_samples)
                            : spec->num_samples;
  options.num_strata = spec->num_strata;
  options.seed = kEngineSeed;
  if (spec->persist) options.persist_dir = scratch.path() + "/persist";
  std::vector<double> setup_seconds;
  const relcomp::Status timed_setup =
      TimeSetUp(*spec, graph, options, &setup_seconds);
  if (!timed_setup.ok()) return Fail("set-up", timed_setup);
  // The serving engine: a restart from the burst's snapshot when persisting.
  auto created = QueryEngine::Create(graph, options);
  if (!created.ok()) return Fail("QueryEngine::Create", created.status());
  std::unique_ptr<QueryEngine> engine = created.MoveValue();

  AnswerLog answers;
  std::atomic<uint64_t> cursor{0};
  std::atomic<bool> tracing{false};
  PhaseOptions warmup;
  warmup.clients = width;
  warmup.max_calls = spec->warmup_queries;
  const PhaseResult warm =
      RunPhase(*engine, stream, cursor, warmup, answers, tracing);

  // The timed phase. A traced run also flushes the warm journal from a side
  // thread during traced windows, timing each FlushWarmState.
  const uint64_t first_index = cursor.load();
  answers.StartTail(first_index);
  const EngineReading before = ReadEngine(*engine);
  SpanLog flush_log(100, 4096);
  std::atomic<bool> phase_done{false};
  std::thread flusher;
  if (traced_run && spec->persist) {
    flusher = std::thread([&] {
      while (!phase_done.load()) {
        std::this_thread::sleep_for(kFlushPeriod);
        if (!tracing.load()) continue;
        ScopedSpan span(&flush_log, SpanName::kFlush);
        (void)engine->FlushWarmState();
      }
    });
  }
  PhaseOptions timed;
  timed.clients = width;
  timed.seconds = args.seconds;
  timed.min_calls = std::max(spec->min_timed_calls, spec->rss_at_calls);
  timed.rss_at_calls = spec->rss_at_calls;
  timed.trace_windows = traced_run ? kTraceWindows : 0;
  timed.slice_seconds = traced_run ? 0.0 : kSliceSeconds;
  timed.slice_min_calls = kSliceMinCalls;
  PhaseResult phase =
      RunPhase(*engine, stream, cursor, timed, answers, tracing);
  phase_done.store(true);
  if (flusher.joinable()) flusher.join();
  const EngineReading after = ReadEngine(*engine);
  const uint64_t end_index = std::min(cursor.load(), stream.size());

  const OracleReport oracle =
      RunOracle(graph, stream, answers, spec->oracle_sample, spec->num_samples,
                width, args.perturb_answers);
  const StreamProperties props = MeasureStream(stream, first_index, end_index);
  const uint64_t ok_calls = phase.attempted - phase.failed;
  bool correct = warm.failed == 0 && phase.failed == 0 && oracle.pass;

  Report report;
  report.Note("workload.queries", static_cast<double>(props.queries), "count",
              props.queries);
  report.Note("failed_share",
              Share(static_cast<double>(phase.failed), phase.attempted),
              "ratio", phase.attempted);
  report.Note("oracle.sample", static_cast<double>(oracle.sample), "count",
              spec->oracle_sample);
  report.Note("oracle.informative", static_cast<double>(oracle.informative),
              "count", oracle.sample);
  report.Note("oracle.budget_mismatches",
              static_cast<double>(oracle.budget_mismatches), "count",
              oracle.sample);
  report.Note("oracle.violations", static_cast<double>(oracle.violations),
              "count", oracle.sample);
  report.Note("oracle.allowed_violations", oracle.allowed_violations, "count",
              oracle.sample);
  report.Note("timed_seconds", phase.elapsed_seconds, "s", 1);
  report.Note("stream_exhausted", phase.exhausted ? 1.0 : 0.0, "bool", 1);
  // The workload's own properties, printed in both modes; the traced run
  // reports them as per-layer metrics.
  const auto property = [&](const char* name, double value, const char* unit) {
    if (traced_run) {
      report.Add(name, value, unit, props.queries);
    } else {
      report.Note(name, value, unit, props.queries);
    }
  };
  property("workload.repeat_share", props.repeat_share, "ratio");
  property("workload.sweep_share", props.sweep_share, "ratio");
  property("workload.distinct_sources",
           static_cast<double>(props.distinct_sources), "count");

  if (!traced_run) {
    std::vector<double> slice_qps, slice_p50, slice_p99;
    for (Slice& slice : phase.slices) {
      slice_qps.push_back(static_cast<double>(slice.ok_calls) / slice.seconds);
      slice_p50.push_back(Quantile(slice.latency_ns, 0.50) * 1e-6);
      slice_p99.push_back(Quantile(slice.latency_ns, 0.99) * 1e-6);
    }
    report.Note("slices", static_cast<double>(phase.slices.size()), "count",
                phase.slices.size());
    report.Note("qps_whole_phase",
                static_cast<double>(ok_calls) / phase.elapsed_seconds, "1/s",
                ok_calls);
    report.Note("latency_p99_ms_whole_phase",
                Quantile(phase.latency_ns, 0.99) * 1e-6, "ms",
                phase.latency_ns.size());
    report.Add("qps", Interpolated(slice_qps, kQpsQuantile), "1/s", ok_calls);
    report.Add("latency_p50_ms", Interpolated(slice_p50, kLatencyQuantile), "ms",
               phase.latency_ns.size());
    report.Add("latency_p99_ms", Interpolated(slice_p99, kLatencyQuantile), "ms",
               phase.latency_ns.size());
    // The second set-up burst, with the serving engine (and its journal
    // flushes) gone and a snapshot of its own.
    engine.reset();
    if (spec->persist) options.persist_dir = scratch.path() + "/persist-setup";
    const relcomp::Status second_setup =
        TimeSetUp(*spec, graph, options, &setup_seconds);
    if (!second_setup.ok()) return Fail("set-up", second_setup);
    report.Add("setup_s", Interpolated(setup_seconds, 0.5), "s",
               setup_seconds.size());
    report.Add("ok_share", Share(static_cast<double>(ok_calls), phase.attempted),
               "ratio", phase.attempted);
    report.Add("err_ratio", oracle.err_ratio, "ratio", oracle.informative);
    report.Add("rss_peak_mb", phase.rss_peak_mb, "MB",
               std::min(phase.attempted, spec->rss_at_calls));
    return report.Print(correct, phase.attempted, phase.failed);
  }

  // Traced run: replay the phase against bare layer objects.
  auto snapshot = SnapshotForProbe(*engine, graph, scratch.path() + "/probe");
  if (!snapshot.ok()) return Fail("snapshot", snapshot.status());
  SpanLog replay_log(200, 1 << 18);
  ReplayInputs inputs;
  inputs.spec = spec;
  inputs.graph = &graph;
  inputs.engine = engine.get();
  inputs.stream = &stream;
  inputs.answers = &answers;
  inputs.first_index = first_index;
  inputs.end_index = end_index;
  inputs.compute_budget_seconds = std::max(1.0, args.seconds / 2.0);
  inputs.snapshot_path = *snapshot;
  auto replay = RunReplay(inputs, replay_log);
  if (!replay.ok()) return Fail("replay", replay.status());
  correct = correct && replay->mismatches == 0;

  std::vector<const SpanLog*> logs = {&setup_log, &flush_log, &replay_log};
  for (const auto& log : phase.logs) logs.push_back(log.get());
  const relcomp::Status written = WriteSpans(
      logs, args.out_dir + "/spans-" + std::string(spec->name) + ".tsv");
  if (!written.ok()) return Fail("write spans", written);
  AddSpanMetrics(report, SummarizeSpans(logs), *replay);
  AddEngineMetrics(report, before, after, phase, width);
  report.Add("persist.snapshot_restored",
             engine->warm_restore_report().snapshot_restored ? 1.0 : 0.0,
             "bool", 1);
  double journal_bytes = 0.0;
  if (engine->persist_store() != nullptr) {
    const auto size =
        std::filesystem::file_size(engine->persist_store()->journal_path(), ec);
    journal_bytes = ec ? 0.0 : static_cast<double>(size);
  }
  report.Add("persist.journal_bytes", journal_bytes, "bytes", 1);
  const double untraced_qps =
      Share(static_cast<double>(phase.untraced_calls), phase.untraced_seconds);
  const double traced_qps =
      Share(static_cast<double>(phase.traced_calls), phase.traced_seconds);
  report.Add("bench.trace_overhead", Share(traced_qps, untraced_qps), "ratio",
             phase.traced_calls);
  report.Note("replay.recomputed", static_cast<double>(replay->recomputed),
              "count", replay->recomputed);
  report.Note("replay.mismatches", static_cast<double>(replay->mismatches),
              "count", replay->recomputed);
  report.Note("replay.cache_keys", static_cast<double>(replay->cache_keys),
              "count", replay->cache_keys);
  uint64_t dropped = 0;
  for (const SpanLog* log : logs) dropped += log->dropped();
  report.Note("bench.spans_dropped", static_cast<double>(dropped), "count", 1);
  return report.Print(correct, phase.attempted, phase.failed);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>] [--dump-queries <n>] "
                 "[--perturb-answers <x>] [--engine-samples <k>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
