// PaxScope: offline predictive analysis over recorded .paxevt traces.
//
// The online checker (checker.hpp) judges the one schedule it observed: a
// run is clean if no rule fired on that interleaving. PaxScope re-reads a
// recorded event stream and asks the stronger question — was the ordering
// the rules depended on *enforced*, or merely lucky? It reconstructs a
// happens-before (HB) relation from the synchronization that is actually
// visible in the trace and re-checks every durability dependency against
// it. Two passes come out of that graph:
//
//   Lock-graph pass (lockdep-style). Every "acquired B while holding A"
//   observation becomes a directed edge (LockClass, instance) → (LockClass,
//   instance), aggregated across one or many traces. A cycle in that graph
//   is a potential deadlock even if no single run ever blocked — the
//   classic ABBA that the online rank check cannot see when both locks
//   share a class (two stripes of different devices, two log mutexes, two
//   runtimes' sync mutexes). Rank violations are reported from the same
//   aggregated graph.
//
//   Predictive persist-order pass. For each durability dependency the
//   online rules check by sequence number alone, PaxScope requires an HB
//   edge:
//     * kEpochCommit must be HB-after the kFlush of every line dirtied in
//       the epoch, with a kDrain HB-between flush and commit;
//     * a kWriteback without the gate flag must be HB-after a kLogFlush
//       whose durable watermark covers its undo record;
//     * a kFlush of a data line with an outstanding kLogAppend (an undo
//       record staged but with no HB-ordered covering kLogFlush) is the
//       raw-WAL form of the same bug: the data can become durable while
//       the record that rolls it back is still in caches.
//   A window where the observed seq order was safe but no HB edge enforces
//   it is feasible under some legal reordering — reported even though the
//   online checker stayed silent.
//
// HB edge vocabulary (one forward pass, vector clocks per thread):
//   program order        — per tid;
//   lock release→acquire — per (LockClass, instance); rwlock-aware: an
//                          exclusive acquire joins every prior release, a
//                          shared acquire joins only the last exclusive
//                          release (shared holders don't order each other);
//   gate observation     — a kWriteback carrying kFlagGateObserved joins
//                          the earliest kLogFlush whose durable watermark
//                          covers its record (the emitter's acquire load of
//                          the watermark is real synchronization, and log
//                          flushes are ordered by the log mutex);
//   pipeline             — kPipelineSeal(e) → kEpochCommit(e).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pax/check/checker.hpp"
#include "pax/check/event.hpp"
#include "pax/common/status.hpp"

namespace pax::check {

namespace internal {
struct LockGraph;  // aggregated lock-order graph (analyze.cpp)
}  // namespace internal

enum class FindingKind : std::uint8_t {
  kLockCycle,          // cycle in the aggregated lock graph
  kLockRankViolation,  // aggregated edge against the documented lock order
  kCommitWindow,       // commit not HB-fenced after a dirty line's flush
  kWritebackWindow,    // ungated write-back not HB-after its log flush
  kUndoFlushWindow,    // data flush not HB-after its undo record's flush
  kOnlineViolation,    // the online rule engine fired during replay
};

const char* finding_kind_name(FindingKind k);

struct Finding {
  FindingKind kind = FindingKind::kOnlineViolation;
  std::string detail;
  std::size_t trace_index = 0;  // which add_trace call produced it
  std::uint64_t seq = 0;        // anchoring event in that trace (0 = n/a)
  std::uint64_t line = kNoLine;
  std::uint64_t epoch = 0;   // kCommitWindow
  std::uint64_t logger = 0;  // kWritebackWindow / kUndoFlushWindow
  std::uint64_t log_end = 0;  // undo-record end a repair must cover

  std::string to_string() const;
};

/// Edge counters from the HB reconstruction — the denominator of the
/// analyzer-throughput bench (bench/abl_paxscope).
struct HbStats {
  std::uint64_t events = 0;
  std::uint64_t program_edges = 0;
  std::uint64_t lock_edges = 0;
  std::uint64_t gate_edges = 0;
  std::uint64_t pipeline_edges = 0;

  std::uint64_t total_edges() const {
    return program_edges + lock_edges + gate_edges + pipeline_edges;
  }
};

struct AnalysisOptions {
  /// Also run each trace through the online rule engines (Checker::replay)
  /// and fold its violations in as kOnlineViolation findings.
  bool online_replay = true;
};

struct AnalysisReport {
  std::vector<Finding> findings;
  HbStats stats;
  std::size_t traces = 0;

  bool clean() const { return findings.empty(); }
  std::size_t count(FindingKind k) const;
  std::string to_string() const;
  /// Machine-readable report: {"traces", "events", "hb_edges": {...},
  /// "clean", "findings": [{kind, detail, trace, seq, line, epoch, logger,
  /// log_end}]}.
  std::string to_json() const;
};

/// Multi-trace aggregation: feed every recorded run of the system under
/// test through add_trace, then finish() — per-trace passes (HB, persist
/// order, online replay) run as traces arrive, the lock graph accumulates
/// across all of them and is judged once at the end.
class TraceAnalyzer {
 public:
  explicit TraceAnalyzer(AnalysisOptions options = {});
  ~TraceAnalyzer();
  TraceAnalyzer(const TraceAnalyzer&) = delete;
  TraceAnalyzer& operator=(const TraceAnalyzer&) = delete;

  /// One recorded execution, in seq order (as recorded_events() and
  /// decode_trace return it).
  Status add_trace(std::span<const Event> events);

  /// Runs the aggregated lock-graph pass and returns everything found.
  /// The analyzer may be reused afterwards (the lock graph keeps
  /// accumulating; per-trace findings are not re-reported).
  AnalysisReport finish();

 private:
  AnalysisOptions options_;
  std::vector<Finding> findings_;
  HbStats stats_;
  std::size_t traces_ = 0;
  std::unique_ptr<internal::LockGraph> lock_graph_;
};

/// Convenience driver for paxctl: read + analyze a set of .paxevt files.
Result<AnalysisReport> analyze_trace_files(
    std::span<const std::string> paths, AnalysisOptions options = {});

}  // namespace pax::check
