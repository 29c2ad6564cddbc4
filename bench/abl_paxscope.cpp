// Ablation — PaxScope offline analysis throughput.
//
// PaxScope (src/pax/check/analyze.hpp) is meant to run over every trace CI
// records — dozens of .paxevt files, millions of events — so the
// happens-before reconstruction must stay comfortably faster than trace
// production. This bench synthesizes a large clean multi-threaded epoch
// trace (locks, undo appends/flushes, stores/flushes, gathered drain,
// commit), runs the analyzer over it, and reports events/s and HB edges/s
// for two configurations: the HB passes alone, and the full pipeline with
// the online rule replay folded in (what `paxctl analyze` runs).
//
// Acceptance (scripts/check_paxscope.py): zero findings on the clean
// stream, and full-pipeline throughput at or above a floor generous enough
// to pass under ASan.
//
// Results land in BENCH_paxscope.json (cwd) for the driver.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "pax/check/analyze.hpp"
#include "pax/check/event.hpp"

namespace {

using namespace pax;
using namespace pax::check;
using Clock = std::chrono::steady_clock;

constexpr int kEpochs = 8000;
constexpr int kThreads = 4;
constexpr std::uint64_t kLogger = 4096;

// One clean epoch: each thread stages an undo record, makes it durable,
// then stores and flushes its line under a stripe lock; the committer
// gathers every stripe release through lock edges, drains, and commits
// under the log mutex. Every ordering edge the analyzer checks for is
// present, so the stream must analyze clean under both engines.
std::vector<Event> synthesize() {
  std::vector<Event> events;
  events.reserve(static_cast<std::size_t>(kEpochs) * (kThreads * 8 + 4));
  std::uint64_t seq = 0;
  std::uint64_t log_end = 0;
  auto emit = [&](EventType type, std::uint16_t tid, std::uint64_t line,
                  std::uint64_t a = 0, std::uint64_t b = 0) {
    Event e;
    e.seq = ++seq;
    e.line = line;
    e.a = a;
    e.b = b;
    e.type = type;
    e.tid = tid;
    events.push_back(e);
  };
  const auto kStripeCls = static_cast<std::uint64_t>(LockClass::kStripe);
  const auto kLogMuCls = static_cast<std::uint64_t>(LockClass::kLogMu);
  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    for (int t = 0; t < kThreads; ++t) {
      const auto tid = static_cast<std::uint16_t>(t);
      const std::uint64_t line =
          static_cast<std::uint64_t>(t) * 1024 + (epoch & 63);
      emit(EventType::kLockAcquire, tid, kNoLine, kStripeCls, tid);
      log_end += 64;
      emit(EventType::kLogAppend, tid, line, kLogger, log_end);
      emit(EventType::kLogFlush, tid, kNoLine, kLogger, log_end);
      emit(EventType::kStore, tid, line);
      emit(EventType::kFlush, tid, line);
      emit(EventType::kLockRelease, tid, kNoLine, kStripeCls, tid);
    }
    // The committer collects every stripe release, so its drain and commit
    // are HB-after all of this epoch's flushes.
    for (int t = 0; t < kThreads; ++t) {
      emit(EventType::kLockAcquire, 0, kNoLine, kStripeCls, t);
      emit(EventType::kLockRelease, 0, kNoLine, kStripeCls, t);
    }
    emit(EventType::kDrain, 0, kNoLine);
    emit(EventType::kLockAcquire, 0, kNoLine, kLogMuCls, 9);
    emit(EventType::kEpochCommit, 0, kNoLine,
         static_cast<std::uint64_t>(epoch));
    emit(EventType::kLockRelease, 0, kNoLine, kLogMuCls, 9);
  }
  return events;
}

struct Row {
  const char* config;
  double analyze_ms;
  std::uint64_t events;
  std::uint64_t hb_edges;
  double events_per_s;
  double edges_per_s;
  std::uint64_t findings;
};

constexpr int kRepeats = 3;

Row run(const char* config, const std::vector<Event>& events,
        bool online_replay) {
  AnalysisOptions options;
  options.online_replay = online_replay;
  double best_ms = 0;
  AnalysisReport report;
  for (int rep = 0; rep < kRepeats; ++rep) {
    TraceAnalyzer analyzer(options);
    const auto t0 = Clock::now();
    if (!analyzer.add_trace(events).is_ok()) std::abort();
    report = analyzer.finish();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    best_ms = rep == 0 ? ms : std::min(best_ms, ms);
  }
  const double secs = best_ms / 1000.0;
  return Row{config,
             best_ms,
             report.stats.events,
             report.stats.total_edges(),
             secs > 0 ? static_cast<double>(report.stats.events) / secs : 0,
             secs > 0 ? static_cast<double>(report.stats.total_edges()) / secs
                      : 0,
             report.findings.size()};
}

}  // namespace

int main() {
  const std::vector<Event> events = synthesize();
  std::printf("=== PaxScope offline analysis throughput ===\n");
  std::printf("synthetic clean trace: %zu events (%d epochs x %d threads)\n",
              events.size(), kEpochs, kThreads);
  std::printf("%10s %12s %10s %10s %12s %12s %9s\n", "config", "analyze[ms]",
              "events", "hb edges", "events/s", "edges/s", "findings");

  std::vector<Row> rows;
  rows.push_back(run("hb-only", events, /*online_replay=*/false));
  rows.push_back(run("full", events, /*online_replay=*/true));
  for (const Row& r : rows) {
    std::printf("%10s %12.1f %10" PRIu64 " %10" PRIu64 " %12.0f %12.0f %9"
                PRIu64 "\n",
                r.config, r.analyze_ms, r.events, r.hb_edges, r.events_per_s,
                r.edges_per_s, r.findings);
    std::fflush(stdout);
  }

  std::FILE* out = std::fopen("BENCH_paxscope.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_paxscope.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"paxscope\",\n");
  std::fprintf(out, "  \"trace_events\": %zu,\n", events.size());
  std::fprintf(out, "  \"epochs\": %d,\n  \"threads\": %d,\n", kEpochs,
               kThreads);
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"config\": \"%s\", \"analyze_ms\": %.2f, "
                 "\"events\": %" PRIu64 ", \"hb_edges\": %" PRIu64 ", "
                 "\"events_per_s\": %.0f, \"hb_edges_per_s\": %.0f, "
                 "\"findings\": %" PRIu64 "}%s\n",
                 r.config, r.analyze_ms, r.events, r.hb_edges, r.events_per_s,
                 r.edges_per_s, r.findings,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_paxscope.json\n");
  return 0;
}
