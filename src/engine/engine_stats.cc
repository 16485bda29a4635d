#include "engine/engine_stats.h"

#include <string_view>

#include "common/format.h"
#include "common/timer.h"

namespace relcomp {

namespace {
/// ns -> ms for the snapshot's double fields.
double NsToMs(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }
}  // namespace

EngineStats::EngineStats(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  registry_ = registry;
  query_latency_ns_ = registry_->GetHistogram("engine_query_latency_ns");
  sweep_latency_ns_ = registry_->GetHistogram("engine_sweep_latency_ns");
  executed_ = registry_->GetCounter("engine_executed_total");
  coalesced_ = registry_->GetCounter("engine_coalesced_total");
  failures_ = registry_->GetCounter("engine_failures_total");
  shed_queue_full_ =
      registry_->GetCounter("engine_shed_total", "reason", "queue_full");
  shed_overload_ =
      registry_->GetCounter("engine_shed_total", "reason", "overload");
  deadline_exceeded_ =
      registry_->GetCounter("engine_deadline_exceeded_total");
  stale_served_ = registry_->GetCounter("engine_stale_served_total");
  for (size_t i = 0; i < kNumFaultSites; ++i) {
    fault_injected_[i] =
        registry_->GetGauge("fault_injected_total", "site",
                            FaultSiteName(static_cast<FaultSite>(i)));
  }
  for (size_t i = 0; i < kNumWorkloadKinds; ++i) {
    workload_queries_[i] =
        registry_->GetCounter("engine_queries_total", "workload",
                              WorkloadKindName(static_cast<WorkloadKind>(i)));
  }
  sweep_executed_ = registry_->GetCounter("engine_sweep_executed_total");
  sweep_hits_ = registry_->GetCounter("engine_sweep_hits_total");
  sweep_coalesced_ = registry_->GetCounter("engine_sweep_coalesced_total");
  strata_executed_ = registry_->GetCounter("engine_strata_executed_total");
  strata_stolen_ = registry_->GetCounter("engine_strata_stolen_total");
  wall_seconds_ = registry_->GetGauge("engine_wall_seconds");
  span_seconds_ = registry_->GetGauge("engine_span_seconds");
  peak_memory_bytes_ = registry_->GetGauge("engine_peak_memory_bytes");
}

void EngineStats::RecordExecuted(double seconds, size_t peak_memory_bytes) {
  query_latency_ns_->RecordSeconds(seconds);
  executed_->Inc();
  peak_memory_bytes_->SetMax(static_cast<double>(peak_memory_bytes));
}

void EngineStats::RecordCacheHit() { query_latency_ns_->Record(0); }

void EngineStats::RecordCoalesced(double wait_seconds) {
  query_latency_ns_->RecordSeconds(wait_seconds);
  coalesced_->Inc();
}

void EngineStats::RecordFailure(double seconds) {
  query_latency_ns_->RecordSeconds(seconds);
  failures_->Inc();
}

void EngineStats::RecordShed(const char* reason) {
  if (reason != nullptr && std::string_view(reason) == "queue_full") {
    shed_queue_full_->Inc();
  } else {
    shed_overload_->Inc();
  }
}

void EngineStats::RecordDeadlineExceeded() { deadline_exceeded_->Inc(); }

void EngineStats::RecordStaleServed() { stale_served_->Inc(); }

void EngineStats::RecordSweepExecuted() { sweep_executed_->Inc(); }

void EngineStats::RecordSweepHit() { sweep_hits_->Inc(); }

void EngineStats::RecordSweepCoalesced() { sweep_coalesced_->Inc(); }

void EngineStats::RecordStratum(bool stolen) {
  strata_executed_->Inc();
  if (stolen) strata_stolen_->Inc();
}

void EngineStats::RecordSweepLatency(double seconds) {
  sweep_latency_ns_->RecordSeconds(seconds);
}

void EngineStats::RecordWorkload(WorkloadKind kind) {
  workload_queries_[static_cast<size_t>(kind)]->Inc();
}

void EngineStats::AddWallTime(double seconds) { wall_seconds_->Add(seconds); }

void EngineStats::MarkCallStart() {
  const uint64_t now = StopwatchNs::Now();
  // Min, not first-to-arrive: two concurrent calls may take their stamps in
  // one order and update in the other.
  uint64_t seen = span_first_start_ns_.load(std::memory_order_relaxed);
  while (now < seen && !span_first_start_ns_.compare_exchange_weak(
                           seen, now, std::memory_order_relaxed)) {
  }
}

void EngineStats::MarkCallEnd() {
  const uint64_t now = StopwatchNs::Now();
  uint64_t seen = span_last_end_ns_.load(std::memory_order_relaxed);
  while (now > seen && !span_last_end_ns_.compare_exchange_weak(
                           seen, now, std::memory_order_relaxed)) {
  }
  // Keep the scrapeable gauge live (Snapshot recomputes from the stamps).
  const uint64_t first = span_first_start_ns_.load(std::memory_order_relaxed);
  const uint64_t last = span_last_end_ns_.load(std::memory_order_relaxed);
  if (first != kNoStamp && last > first) {
    span_seconds_->Set(static_cast<double>(last - first) * 1e-9);
  }
}

EngineStatsSnapshot EngineStats::Snapshot(const ResultCache* cache,
                                          const SweepCache* sweep_cache) const {
  EngineStatsSnapshot snapshot;
  const obs::HistogramSnapshot latency = query_latency_ns_->Snapshot();
  const obs::HistogramSnapshot sweep_latency = sweep_latency_ns_->Snapshot();
  snapshot.queries = latency.count;
  snapshot.executed = executed_->Value();
  snapshot.coalesced = coalesced_->Value();
  snapshot.failures = failures_->Value();
  snapshot.shed = shed_queue_full_->Value() + shed_overload_->Value();
  snapshot.deadline_exceeded = deadline_exceeded_->Value();
  snapshot.stale_served = stale_served_->Value();
  {
    FaultInjector& injector = FaultInjector::Global();
    uint64_t total = 0;
    for (size_t i = 0; i < kNumFaultSites; ++i) {
      const uint64_t n = injector.injected(static_cast<FaultSite>(i));
      fault_injected_[i]->Set(static_cast<double>(n));
      total += n;
    }
    snapshot.faults_injected = total;
  }
  for (size_t i = 0; i < kNumWorkloadKinds; ++i) {
    snapshot.workload_queries[i] = workload_queries_[i]->Value();
  }
  snapshot.sweep_executed = sweep_executed_->Value();
  snapshot.sweep_hits = sweep_hits_->Value();
  snapshot.sweep_coalesced = sweep_coalesced_->Value();
  snapshot.strata_executed = strata_executed_->Value();
  snapshot.strata_stolen = strata_stolen_->Value();
  snapshot.wall_seconds = wall_seconds_->Value();
  snapshot.peak_memory_bytes =
      static_cast<size_t>(peak_memory_bytes_->Value());
  const uint64_t first = span_first_start_ns_.load(std::memory_order_relaxed);
  const uint64_t last = span_last_end_ns_.load(std::memory_order_relaxed);
  if (first != kNoStamp && last > first) {
    snapshot.span_seconds = static_cast<double>(last - first) * 1e-9;
  }
  if (snapshot.wall_seconds > 0.0) {
    snapshot.throughput_qps =
        static_cast<double>(snapshot.queries) / snapshot.wall_seconds;
  }
  if (snapshot.span_seconds > 0.0) {
    snapshot.span_qps =
        static_cast<double>(snapshot.queries) / snapshot.span_seconds;
  }
  if (latency.count > 0) {
    snapshot.mean_ms = latency.mean() * 1e-6;
    snapshot.p50_ms = NsToMs(latency.Quantile(0.50));
    snapshot.p90_ms = NsToMs(latency.Quantile(0.90));
    snapshot.p99_ms = NsToMs(latency.Quantile(0.99));
    snapshot.max_ms = NsToMs(latency.max);  // extremes are tracked exactly
  }
  if (sweep_latency.count > 0) {
    snapshot.sweep_p50_ms = NsToMs(sweep_latency.Quantile(0.50));
    snapshot.sweep_p95_ms = NsToMs(sweep_latency.Quantile(0.95));
  }
  if (cache != nullptr) snapshot.cache = cache->Stats();
  if (sweep_cache != nullptr) snapshot.sweep_cache = sweep_cache->Stats();
  return snapshot;
}

void EngineStats::Reset() {
  query_latency_ns_->Reset();
  sweep_latency_ns_->Reset();
  executed_->Reset();
  coalesced_->Reset();
  failures_->Reset();
  shed_queue_full_->Reset();
  shed_overload_->Reset();
  deadline_exceeded_->Reset();
  stale_served_->Reset();
  for (obs::Counter* counter : workload_queries_) counter->Reset();
  sweep_executed_->Reset();
  sweep_hits_->Reset();
  sweep_coalesced_->Reset();
  strata_executed_->Reset();
  strata_stolen_->Reset();
  wall_seconds_->Reset();
  span_seconds_->Reset();
  peak_memory_bytes_->Reset();
  span_first_start_ns_.store(kNoStamp, std::memory_order_relaxed);
  span_last_end_ns_.store(0, std::memory_order_relaxed);
}

TextTable EngineStatsTable(
    const std::vector<std::pair<std::string, EngineStatsSnapshot>>& rows) {
  TextTable table({"config", "queries", "st/k/set/d", "exec", "coal",
                   "swp x/h/c", "strata x/s", "swp p50/p95",
                   "wall s", "span s", "qps", "mean ms", "p50 ms", "p90 ms",
                   "p99 ms", "max ms", "hit rate", "peak mem", "index mem"});
  for (const auto& [label, s] : rows) {
    table.AddRow(
        {label, StrFormat("%llu", static_cast<unsigned long long>(s.queries)),
         StrFormat(
             "%llu/%llu/%llu/%llu",
             static_cast<unsigned long long>(s.queries_of(WorkloadKind::kSt)),
             static_cast<unsigned long long>(s.queries_of(WorkloadKind::kTopK)),
             static_cast<unsigned long long>(
                 s.queries_of(WorkloadKind::kReliableSet)),
             static_cast<unsigned long long>(
                 s.queries_of(WorkloadKind::kDistance))),
         StrFormat("%llu", static_cast<unsigned long long>(s.executed)),
         StrFormat("%llu", static_cast<unsigned long long>(s.coalesced)),
         StrFormat("%llu/%llu/%llu",
                   static_cast<unsigned long long>(s.sweep_executed),
                   static_cast<unsigned long long>(s.sweep_hits),
                   static_cast<unsigned long long>(s.sweep_coalesced)),
         StrFormat("%llu/%llu",
                   static_cast<unsigned long long>(s.strata_executed),
                   static_cast<unsigned long long>(s.strata_stolen)),
         StrFormat("%.2f/%.2f", s.sweep_p50_ms, s.sweep_p95_ms),
         StrFormat("%.3f", s.wall_seconds), StrFormat("%.3f", s.span_seconds),
         StrFormat("%.1f", s.throughput_qps), StrFormat("%.3f", s.mean_ms),
         StrFormat("%.3f", s.p50_ms), StrFormat("%.3f", s.p90_ms),
         StrFormat("%.3f", s.p99_ms), StrFormat("%.3f", s.max_ms),
         StrFormat("%.1f%%", s.cache.hit_rate() * 100.0),
         HumanBytes(s.peak_memory_bytes),
         HumanBytes(s.index_memory.total_bytes())});
  }
  return table;
}

}  // namespace relcomp
