#include "serve.h"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <thread>

namespace perfbench {

namespace {

constexpr size_t kClientSpanCapacity = 1 << 17;
constexpr auto kPollSlice = std::chrono::milliseconds(5);

uint32_t ClampNs(uint64_t ns) {
  return ns > 0xffffffffULL ? 0xffffffffU : static_cast<uint32_t>(ns);
}

struct ClientState {
  std::vector<uint32_t> latency_ns;
  std::vector<uint32_t> overhead_ns;
  uint64_t failed = 0;
  uint64_t untraced_calls = 0;
  uint64_t traced_calls = 0;
  double busy_seconds = 0.0;
  bool exhausted = false;
  std::unique_ptr<SpanLog> log;
  /// Indexed like PhaseResult::slices (seconds unset).
  std::vector<Slice> slices;
};

}  // namespace

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

PhaseResult RunPhase(relcomp::QueryEngine& engine, const QueryStream& stream,
                     std::atomic<uint64_t>& cursor,
                     const PhaseOptions& options, AnswerLog& answers,
                     std::atomic<bool>& tracing) {
  const uint64_t start_index = cursor.load();
  const uint64_t end_index =
      options.max_calls >= stream.size() - std::min(stream.size(), start_index)
          ? stream.size()
          : start_index + options.max_calls;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::atomic<double> rss_peak_mb{0.0};
  std::atomic<size_t> running{options.clients};
  // Trace windows: which kind of window is open (calls starting outside
  // every window, e.g. in a run extended for min_calls, count in neither).
  enum Window : int { kUntraced, kTraced, kOutside };
  std::atomic<int> window{options.trace_windows > 0 ? kUntraced : kOutside};
  std::vector<ClientState> clients(options.clients);
  tracing.store(false);
  // Time slices: the one open now; a timed phase runs at most 3x its time.
  const size_t max_slices =
      options.slice_seconds > 0.0
          ? static_cast<size_t>(
                std::ceil(3.0 * options.seconds / options.slice_seconds)) + 2
          : 0;
  std::atomic<size_t> open_slice{0};

  const auto client_loop = [&](ClientState& state) {
    std::vector<relcomp::EngineQuery> batch(1);
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t index = cursor.fetch_add(1);
      if (index >= end_index) {
        state.exhausted = index >= stream.size();
        break;
      }
      batch[0] = stream.At(index);
      const int open_window = window.load(std::memory_order_relaxed);
      const bool traced = open_window == kTraced;
      const uint64_t begin_ns = relcomp::StopwatchNs::Now();
      auto results = engine.RunBatch(batch);
      const uint64_t end_ns = relcomp::StopwatchNs::Now();
      if (completed.fetch_add(1, std::memory_order_relaxed) + 1 ==
          options.rss_at_calls) {
        rss_peak_mb.store(PeakRssMb());
      }
      if (traced) {
        state.log->Add(SpanName::kRunBatch, kNoSpan, index, begin_ns, end_ns);
        ++state.traced_calls;
      } else if (open_window == kUntraced) {
        ++state.untraced_calls;
      }
      state.latency_ns.push_back(ClampNs(end_ns - begin_ns));
      const relcomp::EngineResult* result =
          results.ok() && results->size() == 1 ? &results->front() : nullptr;
      Slice* slice = nullptr;
      if (max_slices > 0) {
        slice = &state.slices[std::min(
            open_slice.load(std::memory_order_relaxed), max_slices - 1)];
        slice->latency_ns.push_back(ClampNs(end_ns - begin_ns));
      }
      if (result == nullptr || !result->ok()) {
        ++state.failed;
        continue;
      }
      if (slice != nullptr) ++slice->ok_calls;
      const uint64_t engine_ns = static_cast<uint64_t>(result->seconds * 1e9);
      state.overhead_ns.push_back(
          ClampNs(end_ns - begin_ns - std::min(end_ns - begin_ns, engine_ns)));
      if (!result->cache_hit && !result->coalesced) {
        state.busy_seconds += result->seconds;
      }
      if (Answer* slot = answers.Slot(index)) {
        Answer& answer = *slot;
        answer.answered = true;
        answer.cache_hit = result->cache_hit;
        answer.coalesced = result->coalesced;
        answer.reliability = result->reliability;
        answer.num_samples = result->num_samples;
        answer.num_targets = static_cast<uint32_t>(result->targets.size());
        if (!result->targets.empty()) {
          answer.top_node = result->targets.front().node;
          answer.top_reliability = result->targets.front().reliability;
        }
      }
    }
    running.fetch_sub(1);
  };

  std::vector<std::thread> threads;
  threads.reserve(options.clients);
  for (size_t c = 0; c < options.clients; ++c) {
    clients[c].log = std::make_unique<SpanLog>(
        static_cast<uint32_t>(c + 1),
        options.trace_windows > 0 ? kClientSpanCapacity : 0);
    clients[c].slices.resize(max_slices);
    threads.emplace_back(client_loop, std::ref(clients[c]));
  }

  PhaseResult phase;
  const relcomp::StopwatchNs clock;
  // Ends of the slices closed so far, and the calls completed by then.
  std::vector<double> slice_ends;
  uint64_t slice_start_calls = 0;
  const auto poll = [&] {
    std::this_thread::sleep_for(kPollSlice);
    if (max_slices == 0 || slice_ends.size() + 1 >= max_slices) return;
    const double now = clock.ElapsedSeconds();
    const uint64_t calls = completed.load();
    if (now - (slice_ends.empty() ? 0.0 : slice_ends.back()) >=
            options.slice_seconds &&
        calls - slice_start_calls >= options.slice_min_calls) {
      slice_ends.push_back(now);
      slice_start_calls = calls;
      open_slice.store(slice_ends.size(), std::memory_order_relaxed);
    }
  };
  const auto sleep_until = [&](double seconds) {
    while (running.load() > 0 && clock.ElapsedSeconds() < seconds) poll();
  };
  if (options.seconds > 0.0) {
    if (options.trace_windows > 0) {
      // Windows run untraced, traced, traced, untraced, ... so a throughput
      // trend over the phase (caches warming) weighs both kinds alike.
      const int windows = 2 * options.trace_windows;
      double window_start = 0.0;
      for (int w = 0; w < windows; ++w) {
        const bool traced = (w + 1) / 2 % 2 == 1;
        window.store(traced ? kTraced : kUntraced);
        tracing.store(traced);
        sleep_until(options.seconds * (w + 1) / windows);
        const double now = clock.ElapsedSeconds();
        (traced ? phase.traced_seconds : phase.untraced_seconds) +=
            now - window_start;
        window_start = now;
      }
      window.store(kOutside);
      tracing.store(false);
    } else {
      sleep_until(options.seconds);
    }
    while (running.load() > 0 && completed.load() < options.min_calls &&
           clock.ElapsedSeconds() < 3.0 * options.seconds) {
      poll();
    }
    stop.store(true);
  }
  for (std::thread& thread : threads) thread.join();
  phase.elapsed_seconds = clock.ElapsedSeconds();
  if (max_slices > 0) {
    slice_ends.push_back(phase.elapsed_seconds);
    double start = 0.0;
    for (const double end : slice_ends) {
      Slice& slice = phase.slices.emplace_back();
      slice.seconds = end - start;
      start = end;
      for (ClientState& state : clients) {
        Slice& part = state.slices[phase.slices.size() - 1];
        slice.ok_calls += part.ok_calls;
        slice.latency_ns.insert(slice.latency_ns.end(),
                                part.latency_ns.begin(),
                                part.latency_ns.end());
      }
    }
    if (phase.slices.size() > 1 &&
        (phase.slices.back().seconds < options.slice_seconds ||
         phase.slices.back().latency_ns.size() < options.slice_min_calls)) {
      Slice last = std::move(phase.slices.back());
      phase.slices.pop_back();
      Slice& merged = phase.slices.back();
      merged.seconds += last.seconds;
      merged.ok_calls += last.ok_calls;
      merged.latency_ns.insert(merged.latency_ns.end(),
                               last.latency_ns.begin(), last.latency_ns.end());
    }
  }
  phase.rss_peak_mb = rss_peak_mb.load();
  if (phase.rss_peak_mb == 0.0) phase.rss_peak_mb = PeakRssMb();

  for (ClientState& state : clients) {
    phase.attempted += state.latency_ns.size();
    phase.failed += state.failed;
    phase.busy_seconds += state.busy_seconds;
    phase.untraced_calls += state.untraced_calls;
    phase.traced_calls += state.traced_calls;
    phase.exhausted = phase.exhausted || state.exhausted;
    phase.latency_ns.insert(phase.latency_ns.end(), state.latency_ns.begin(),
                            state.latency_ns.end());
    phase.overhead_ns.insert(phase.overhead_ns.end(),
                             state.overhead_ns.begin(),
                             state.overhead_ns.end());
    phase.logs.push_back(std::move(state.log));
  }
  return phase;
}

}  // namespace perfbench
