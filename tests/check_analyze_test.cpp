// Predictive power of the PaxScope offline analyzer: every seeded ordering
// bug here is INVISIBLE to the online checker (its rules judge the observed
// schedule, which happens to be safe) and must still be flagged from the
// happens-before reconstruction — while the clean twin of each trace, with
// the enforcing edge restored, must analyze quiet.
#include "pax/check/analyze.hpp"

#include <gtest/gtest.h>

#include "pax/check/checker.hpp"
#include "pax/check/repair.hpp"

namespace pax::check {
namespace {

struct TraceBuilder {
  std::vector<Event> events;
  std::uint64_t seq = 0;

  TraceBuilder& add(EventType type, std::uint16_t tid,
                    std::uint64_t line = kNoLine, std::uint64_t a = 0,
                    std::uint64_t b = 0, std::uint8_t flags = 0) {
    Event e;
    e.seq = ++seq;
    e.line = line;
    e.a = a;
    e.b = b;
    e.type = type;
    e.flags = flags;
    e.tid = tid;
    events.push_back(e);
    return *this;
  }
  TraceBuilder& lock(std::uint16_t tid, LockClass cls, std::uint64_t id) {
    return add(EventType::kLockAcquire, tid, kNoLine,
               static_cast<std::uint64_t>(cls), id);
  }
  TraceBuilder& unlock(std::uint16_t tid, LockClass cls, std::uint64_t id) {
    return add(EventType::kLockRelease, tid, kNoLine,
               static_cast<std::uint64_t>(cls), id);
  }
};

AnalysisReport analyze_one(const std::vector<Event>& events) {
  TraceAnalyzer analyzer;
  Status st = analyzer.add_trace(events);
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  return analyzer.finish();
}

void expect_online_silent(const std::vector<Event>& events) {
  Checker checker;
  const Report report = checker.replay(events);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

// --- lockdep: same-class ABBA the online rank check can never see --------

std::vector<Event> abba_log_mutexes(bool buggy) {
  // Two log-mutex instances (same LockClass, equal rank) taken in opposite
  // orders by two threads — but never overlapping in time, so no run
  // blocks and the online checker (which compares ranks, not instances)
  // stays silent. The clean twin orders both threads identically.
  TraceBuilder t;
  t.lock(0, LockClass::kLogMu, 1)
      .lock(0, LockClass::kLogMu, 2)
      .unlock(0, LockClass::kLogMu, 2)
      .unlock(0, LockClass::kLogMu, 1);
  if (buggy) {
    t.lock(1, LockClass::kLogMu, 2)
        .lock(1, LockClass::kLogMu, 1)
        .unlock(1, LockClass::kLogMu, 1)
        .unlock(1, LockClass::kLogMu, 2);
  } else {
    t.lock(1, LockClass::kLogMu, 1)
        .lock(1, LockClass::kLogMu, 2)
        .unlock(1, LockClass::kLogMu, 2)
        .unlock(1, LockClass::kLogMu, 1);
  }
  return t.events;
}

TEST(PaxScopeLockGraph, SameClassCycleDetectedThoughOnlineSilent) {
  const std::vector<Event> bug = abba_log_mutexes(/*buggy=*/true);
  expect_online_silent(bug);

  const AnalysisReport report = analyze_one(bug);
  EXPECT_EQ(report.count(FindingKind::kLockCycle), 1u) << report.to_string();
  EXPECT_EQ(report.findings.size(), 1u) << report.to_string();
  // Both ends of the cycle are named class #instance.
  EXPECT_NE(report.findings[0].detail.find("log-mu #1"), std::string::npos);
  EXPECT_NE(report.findings[0].detail.find("log-mu #2"), std::string::npos);
}

TEST(PaxScopeLockGraph, ConsistentOrderTwinIsClean) {
  const AnalysisReport report = analyze_one(abba_log_mutexes(false));
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(PaxScopeLockGraph, CycleAggregatesAcrossTraces) {
  // Each run on its own is acyclic; only the union of the two runs' lock
  // graphs contains the inversion. No single-trace tool can see this.
  TraceBuilder a;
  a.lock(0, LockClass::kLogMu, 1)
      .lock(0, LockClass::kLogMu, 2)
      .unlock(0, LockClass::kLogMu, 2)
      .unlock(0, LockClass::kLogMu, 1);
  TraceBuilder b;
  b.lock(0, LockClass::kLogMu, 2)
      .lock(0, LockClass::kLogMu, 1)
      .unlock(0, LockClass::kLogMu, 1)
      .unlock(0, LockClass::kLogMu, 2);

  TraceAnalyzer analyzer;
  ASSERT_TRUE(analyzer.add_trace(a.events).is_ok());
  ASSERT_TRUE(analyzer.add_trace(b.events).is_ok());
  const AnalysisReport report = analyzer.finish();
  EXPECT_EQ(report.count(FindingKind::kLockCycle), 1u) << report.to_string();

  // Per-trace analysis of either half finds nothing.
  EXPECT_TRUE(analyze_one(a.events).clean());
  EXPECT_TRUE(analyze_one(b.events).clean());
}

TEST(PaxScopeLockGraph, RankViolationReportedFromAggregatedEdge) {
  // log-mu (rank 3) held while a stripe (rank 2) is acquired. The online
  // checker also fires on this order; the offline pass must agree from the
  // aggregated graph alone.
  TraceBuilder t;
  t.lock(0, LockClass::kLogMu, 1)
      .lock(0, LockClass::kStripe, 4)
      .unlock(0, LockClass::kStripe, 4)
      .unlock(0, LockClass::kLogMu, 1);
  AnalysisOptions options;
  options.online_replay = false;  // isolate the offline verdict
  TraceAnalyzer analyzer(options);
  ASSERT_TRUE(analyzer.add_trace(t.events).is_ok());
  const AnalysisReport report = analyzer.finish();
  EXPECT_EQ(report.count(FindingKind::kLockRankViolation), 1u)
      << report.to_string();
  EXPECT_NE(report.findings[0].detail.find("log-mu #1"), std::string::npos);
  EXPECT_NE(report.findings[0].detail.find("stripe #4"), std::string::npos);
}

// --- persist order: commit windows ---------------------------------------

std::vector<Event> cross_thread_commit(bool buggy) {
  // Thread 0 stores, flushes, and drains a line; thread 1 commits the
  // epoch. In the buggy variant no synchronization connects them — the
  // observed order (flush before commit) was luck, and the commit could
  // legally overtake the flush. The clean twin hands off through a mutex.
  TraceBuilder t;
  if (buggy) {
    t.add(EventType::kStore, 0, 5)
        .add(EventType::kFlush, 0, 5)
        .add(EventType::kDrain, 0)
        .add(EventType::kEpochCommit, 1, kNoLine, 1);
  } else {
    t.lock(0, LockClass::kLogMu, 9)
        .add(EventType::kStore, 0, 5)
        .add(EventType::kFlush, 0, 5)
        .add(EventType::kDrain, 0)
        .unlock(0, LockClass::kLogMu, 9)
        .lock(1, LockClass::kLogMu, 9)
        .add(EventType::kEpochCommit, 1, kNoLine, 1)
        .unlock(1, LockClass::kLogMu, 9);
  }
  return t.events;
}

TEST(PaxScopePersistOrder, UnorderedCommitWindowDetected) {
  const std::vector<Event> bug = cross_thread_commit(/*buggy=*/true);
  expect_online_silent(bug);  // flush and fence both present in seq order

  const AnalysisReport report = analyze_one(bug);
  ASSERT_EQ(report.count(FindingKind::kCommitWindow), 1u)
      << report.to_string();
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.line, 5u);
  EXPECT_EQ(f.epoch, 1u);
}

TEST(PaxScopePersistOrder, MutexHandoffTwinIsClean) {
  const AnalysisReport report = analyze_one(cross_thread_commit(false));
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(PaxScopePersistOrder, PipelineSealOrdersTheCommit) {
  // The unordered shape above, but thread 0 seals the epoch's snapshot
  // after its drain: the seal → commit edge orders the flush and the drain
  // before thread 1's commit.
  TraceBuilder t;
  t.add(EventType::kStore, 0, 5)
      .add(EventType::kFlush, 0, 5)
      .add(EventType::kDrain, 0)
      .add(EventType::kPipelineSeal, 0, kNoLine, 1)
      .add(EventType::kEpochCommit, 1, kNoLine, 1);
  const AnalysisReport report = analyze_one(t.events);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.stats.pipeline_edges, 1u);
}

TEST(PaxScopePersistOrder, MissingDrainBetweenFlushAndCommitDetected) {
  // Flush and commit are lock-ordered, but no drain sits between them —
  // the flush may still be in flight when the commit lands. The online
  // fence rule counts flushes since the last drain globally and is
  // satisfied by the unrelated drain before the flush.
  TraceBuilder t;
  t.add(EventType::kDrain, 0)
      .lock(0, LockClass::kLogMu, 9)
      .add(EventType::kStore, 0, 5)
      .add(EventType::kFlush, 0, 5)
      .unlock(0, LockClass::kLogMu, 9)
      .lock(1, LockClass::kLogMu, 9)
      .add(EventType::kDrain, 1)
      .add(EventType::kEpochCommit, 1, kNoLine, 1)
      .unlock(1, LockClass::kLogMu, 9);
  // Thread 1's own drain IS ordered after the flush (lock edge) and before
  // the commit — covered, clean.
  EXPECT_TRUE(analyze_one(t.events).clean());

  TraceBuilder bug;
  bug.add(EventType::kDrain, 0)
      .lock(0, LockClass::kLogMu, 9)
      .add(EventType::kStore, 0, 5)
      .add(EventType::kFlush, 0, 5)
      .unlock(0, LockClass::kLogMu, 9)
      .add(EventType::kDrain, 0)  // after release: not ordered before commit
      .lock(1, LockClass::kLogMu, 9)
      .add(EventType::kEpochCommit, 1, kNoLine, 1)
      .unlock(1, LockClass::kLogMu, 9);
  const AnalysisReport report = analyze_one(bug.events);
  EXPECT_EQ(report.count(FindingKind::kCommitWindow), 1u)
      << report.to_string();
}

// --- persist order: write-back and undo-flush windows --------------------

TEST(PaxScopePersistOrder, UngatedWritebackWindowDetected) {
  // The undo record's covering log flush exists in sequence order, but the
  // write-back carries no gate observation and no HB edge reaches it: the
  // online gating rule (which compares watermarks by seq) is satisfied.
  TraceBuilder t;
  t.add(EventType::kLogAppend, 0, 5, 4096, 128)
      .add(EventType::kLogFlush, 0, kNoLine, 4096, 128)
      .add(EventType::kWriteback, 1, 5, 4096, 128);
  expect_online_silent(t.events);
  const AnalysisReport report = analyze_one(t.events);
  ASSERT_EQ(report.count(FindingKind::kWritebackWindow), 1u)
      << report.to_string();
  EXPECT_EQ(report.findings[0].logger, 4096u);
  EXPECT_EQ(report.findings[0].log_end, 128u);
}

TEST(PaxScopePersistOrder, GateObservedWritebackIsClean) {
  // Same shape, but the write-back recorded its acquire load of the
  // watermark: the analyzer joins the covering flush and stays quiet.
  TraceBuilder t;
  t.add(EventType::kLogAppend, 0, 5, 4096, 128)
      .add(EventType::kLogFlush, 0, kNoLine, 4096, 128)
      .add(EventType::kWriteback, 1, 5, 4096, 128, kFlagGateObserved);
  const AnalysisReport report = analyze_one(t.events);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.stats.gate_edges, 1u);
}

TEST(PaxScopePersistOrder, UndoFlushWindowDetected) {
  // Data line flushed while its staged undo record has no durable covering
  // log flush at all — the raw-WAL shape of the §3.3 bug. No kWriteback is
  // involved, so no online rule even applies.
  TraceBuilder t;
  t.add(EventType::kLogAppend, 0, 5, 4096, 96)
      .add(EventType::kStore, 0, 5)
      .add(EventType::kFlush, 0, 5)
      .add(EventType::kLogFlush, 0, kNoLine, 4096, 96)  // too late
      .add(EventType::kDrain, 0)
      .add(EventType::kEpochCommit, 0, kNoLine, 1);
  expect_online_silent(t.events);
  const AnalysisReport report = analyze_one(t.events);
  ASSERT_EQ(report.count(FindingKind::kUndoFlushWindow), 1u)
      << report.to_string();
  EXPECT_EQ(report.findings[0].line, 5u);
  EXPECT_EQ(report.findings[0].log_end, 96u);
}

TEST(PaxScopePersistOrder, FlushedUndoTwinIsClean) {
  TraceBuilder t;
  t.add(EventType::kLogAppend, 0, 5, 4096, 96)
      .add(EventType::kLogFlush, 0, kNoLine, 4096, 96)  // durable first
      .add(EventType::kStore, 0, 5)
      .add(EventType::kFlush, 0, 5)
      .add(EventType::kDrain, 0)
      .add(EventType::kEpochCommit, 0, kNoLine, 1);
  EXPECT_TRUE(analyze_one(t.events).clean());
}

// --- real-device traces via the seeded repair scenarios -------------------

TEST(PaxScopeScenario, UndoFlushScenarioDetectedOnlyOffline) {
  auto scenario = seeded_repair_scenario("undo-flush", /*buggy=*/true);
  ASSERT_TRUE(scenario.ok());
  auto events = record_scenario_trace(scenario.value());
  ASSERT_TRUE(events.ok()) << events.status().to_string();

  expect_online_silent(events.value());  // the whole point of the scenario

  const AnalysisReport report = analyze_one(events.value());
  EXPECT_FALSE(report.clean());
  EXPECT_GE(report.count(FindingKind::kUndoFlushWindow), 1u)
      << report.to_string();
  EXPECT_EQ(report.count(FindingKind::kOnlineViolation), 0u)
      << report.to_string();
}

TEST(PaxScopeScenario, UndoFlushCleanTwinAnalyzesQuiet) {
  auto scenario = seeded_repair_scenario("undo-flush", /*buggy=*/false);
  ASSERT_TRUE(scenario.ok());
  auto events = record_scenario_trace(scenario.value());
  ASSERT_TRUE(events.ok()) << events.status().to_string();
  const AnalysisReport report = analyze_one(events.value());
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(PaxScopeScenario, MissingFlushCleanTwinAnalyzesQuiet) {
  auto scenario = seeded_repair_scenario("missing-flush", /*buggy=*/false);
  ASSERT_TRUE(scenario.ok());
  auto events = record_scenario_trace(scenario.value());
  ASSERT_TRUE(events.ok()) << events.status().to_string();
  const AnalysisReport report = analyze_one(events.value());
  EXPECT_TRUE(report.clean()) << report.to_string();
}

// --- report plumbing ------------------------------------------------------

TEST(PaxScopeReport, OnlineViolationsFoldIntoFindings) {
  // A plainly broken stream (store, no flush, commit): the online engine
  // fires and the analyzer surfaces it as kOnlineViolation next to its own
  // kCommitWindow (which carries the structured line + epoch for repair).
  TraceBuilder t;
  t.add(EventType::kStore, 0, 5)
      .add(EventType::kDrain, 0)
      .add(EventType::kEpochCommit, 0, kNoLine, 1);
  const AnalysisReport report = analyze_one(t.events);
  EXPECT_GE(report.count(FindingKind::kOnlineViolation), 1u)
      << report.to_string();
  EXPECT_EQ(report.count(FindingKind::kCommitWindow), 1u);
}

TEST(PaxScopeReport, JsonAndTextAreNonEmptyAndConsistent) {
  const AnalysisReport report = analyze_one(abba_log_mutexes(true));
  EXPECT_NE(report.to_string().find("lock-cycle"), std::string::npos);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"lock-cycle\""), std::string::npos);
  EXPECT_NE(json.find("\"hb_edges\""), std::string::npos);
}

TEST(PaxScopeReport, OutOfOrderTraceRejected) {
  TraceBuilder t;
  t.add(EventType::kStore, 0, 5).add(EventType::kFlush, 0, 5);
  std::swap(t.events[0], t.events[1]);
  TraceAnalyzer analyzer;
  EXPECT_FALSE(analyzer.add_trace(t.events).is_ok());
}

TEST(PaxScopeReport, StatsCountEdgesByKind) {
  const AnalysisReport report = analyze_one(cross_thread_commit(false));
  EXPECT_GT(report.stats.events, 0u);
  EXPECT_GT(report.stats.program_edges, 0u);
  EXPECT_GT(report.stats.lock_edges, 0u);
  EXPECT_EQ(report.stats.total_edges(),
            report.stats.program_edges + report.stats.lock_edges +
                report.stats.gate_edges + report.stats.pipeline_edges);
}

}  // namespace
}  // namespace pax::check
