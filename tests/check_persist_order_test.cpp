// Seeded-bug coverage for the PaxCheck persist-order rules: each rule must
// fire exactly once on its injected violation and stay silent on the
// equivalent correct sequence (docs/ANALYSIS.md).
#include <gtest/gtest.h>

#include <cstring>

#include "pax/check/checker.hpp"
#include "pax/libpax/runtime.hpp"
#include "pax/pmem/pmem_device.hpp"
#include "pax/pmem/pool.hpp"
#include "test_util.hpp"

namespace pax {
namespace {

using check::Checker;
using check::Rule;

// Injected bug: a store whose flush was deleted, present at epoch commit.
TEST(PaxCheckPersistOrder, UnflushedLineAtCommitFires) {
  auto tp = testing::TestPool::create();
  Checker checker;
  tp.device->set_checker(&checker);

  const LineIndex dirty = tp.data_line(3);
  const LineIndex clean = tp.data_line(7);
  tp.device->store_line(dirty, testing::patterned_line(1));  // flush deleted
  tp.device->store_line(clean, testing::patterned_line(2));
  tp.device->flush_line(clean);
  tp.device->drain();
  tp.pool.commit_epoch(1);

  auto report = checker.report();
  EXPECT_EQ(report.count(Rule::kUnflushedLineAtCommit), 1u);
  ASSERT_FALSE(report.violations.empty());
  const auto& v = report.violations.front();
  EXPECT_EQ(v.rule, Rule::kUnflushedLineAtCommit);
  EXPECT_EQ(v.line, dirty.value);
  EXPECT_FALSE(v.backtrace.empty());  // the store is in the backtrace
  tp.device->set_checker(nullptr);
}

TEST(PaxCheckPersistOrder, FlushedCommitIsClean) {
  auto tp = testing::TestPool::create();
  Checker checker;
  tp.device->set_checker(&checker);

  const LineIndex line = tp.data_line(3);
  tp.device->store_line(line, testing::patterned_line(1));
  tp.device->flush_line(line);
  tp.device->drain();
  tp.pool.commit_epoch(1);

  EXPECT_TRUE(checker.report().clean()) << checker.report().to_string();
  tp.device->set_checker(nullptr);
}

// Injected bug: the drain (SFENCE) before the commit was deleted — the
// flushes are unordered relative to the commit record.
TEST(PaxCheckPersistOrder, CommitWithoutFenceFires) {
  auto tp = testing::TestPool::create();
  Checker checker;
  tp.device->set_checker(&checker);

  const LineIndex line = tp.data_line(5);
  tp.device->store_line(line, testing::patterned_line(9));
  tp.device->flush_line(line);  // drain deleted
  tp.pool.commit_epoch(1);

  auto report = checker.report();
  EXPECT_EQ(report.count(Rule::kCommitWithoutFence), 1u);
  EXPECT_EQ(report.count(Rule::kUnflushedLineAtCommit), 0u);
  tp.device->set_checker(nullptr);
}

// Redundant flushes (CLWB of an already-clean line) are a perf diagnostic,
// never a violation: the WAL flush path legitimately re-flushes the line
// holding the durable boundary.
TEST(PaxCheckPersistOrder, RedundantFlushIsDiagnosticOnly) {
  auto tp = testing::TestPool::create();
  Checker checker;
  tp.device->set_checker(&checker);

  const LineIndex line = tp.data_line(2);
  tp.device->store_line(line, testing::patterned_line(4));
  tp.device->flush_line(line);
  tp.device->flush_line(line);  // nothing pending: redundant
  tp.device->drain();

  auto report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GE(report.diagnostics.redundant_flushes, 1u);
  tp.device->set_checker(nullptr);
}

// Injected bug: a data line written back to PM while its undo record is
// still beyond the log's durable watermark (the §3.3 gating invariant,
// driven through the event API — the real device refuses to reach this
// state, which is exactly why the rule needs a synthetic trace).
TEST(PaxCheckPersistOrder, WritebackBeforeUndoDurableFires) {
  Checker checker;
  checker.on_log_append(/*logger=*/7, /*line=*/41, /*end=*/96);
  // Log flush deleted: the watermark never reached 96.
  checker.on_writeback(/*line=*/41, /*logger=*/7, /*end=*/96);
  checker.on_drain();

  auto report = checker.report();
  EXPECT_EQ(report.count(Rule::kWritebackBeforeUndoDurable), 1u);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations.front().line, 41u);
}

TEST(PaxCheckPersistOrder, DurableWritebackIsClean) {
  Checker checker;
  checker.on_log_append(7, 41, 96);
  checker.on_log_flush(7, /*durable=*/96);
  checker.on_writeback(41, 7, 96);
  checker.on_drain();
  EXPECT_TRUE(checker.report().clean()) << checker.report().to_string();
}

// Injected bug: a push after a failed sync_lines batch. The failed epoch's
// digests already describe bytes the device never received, so a runtime
// that retried would commit an image missing them.
TEST(PaxCheckPersistOrder, PushAfterFailedBatchFires) {
  Checker checker;
  checker.on_sync_push(/*runtime=*/1, /*line=*/9);
  checker.on_sync_batch_fail(1);
  checker.on_sync_push(1, 9);  // the retry a non-sticky runtime would make
  checker.on_sync_batch_ok(1);

  auto report = checker.report();
  EXPECT_EQ(report.count(Rule::kPushAfterFailedBatch), 1u);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations.front().line, 9u);
}

// Injected bug: submitting the epoch whose batch failed for commit.
TEST(PaxCheckPersistOrder, CommitAfterFailedBatchFires) {
  Checker checker;
  checker.on_sync_push(1, 9);
  checker.on_sync_batch_fail(1);
  checker.on_epoch_submit(1, /*epoch=*/1);

  auto report = checker.report();
  EXPECT_EQ(report.count(Rule::kPushAfterFailedBatch), 1u);
  ASSERT_EQ(report.violations.size(), 1u);
}

// Successful batches never arm the rule, and a failure arms it only for
// the runtime that failed: another runtime on the same checker (a shared
// checker, or a re-attach after destroying the failed one) pushes and
// commits cleanly, with or without a crash in between.
TEST(PaxCheckPersistOrder, FailureIsScopedToItsRuntime) {
  Checker checker;
  checker.on_sync_push(1, 9);
  checker.on_sync_batch_ok(1);
  checker.on_epoch_submit(1, 1);
  checker.on_epoch_commit(1);
  checker.on_sync_push(1, 11);
  checker.on_sync_batch_fail(1);
  checker.on_sync_push(2, 11);
  checker.on_sync_batch_ok(2);
  checker.on_epoch_submit(2, 1);
  checker.on_epoch_commit(1);
  checker.on_crash();
  checker.on_sync_push(3, 11);
  checker.on_sync_batch_ok(3);
  EXPECT_TRUE(checker.report().clean()) << checker.report().to_string();
}

// The runtime side of the rule: a persist() that fails on log exhaustion
// poisons the runtime, so every later entry point returns the same error
// without pushing or committing anything.
TEST(PaxCheckPersistOrder, FailedPersistIsStickyAndClean) {
  auto pm = pmem::PmemDevice::create_in_memory(8 << 20);
  Checker checker;
  pm->set_checker(&checker);
  {
    libpax::RuntimeOptions ro;
    ro.log_size = 2 * kPageSize;  // ~85 line records
    auto rt = libpax::PaxRuntime::attach(pm.get(), ro).value();
    std::memset(rt->vpm_base() + kPageSize, 0x77, 32 * kPageSize);
    auto first = rt->persist();
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.status().code(), StatusCode::kOutOfSpace);
    std::memset(rt->vpm_base() + kPageSize, 0x78, kPageSize);
    EXPECT_EQ(rt->persist().status().code(), StatusCode::kOutOfSpace);
    EXPECT_EQ(rt->persist_async().status().code(), StatusCode::kOutOfSpace);
    EXPECT_EQ(rt->complete_persist().status().code(),
              StatusCode::kOutOfSpace);
    rt->sync_step();
    EXPECT_EQ(rt->committed_epoch(), 0u);
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  pm->set_checker(nullptr);
}

// The recovery the failure model prescribes: destroy the failed runtime
// and attach again, with no crash in between. The new runtime's pushes and
// commits are its own, and so are those of a runtime on another device
// sharing the checker while the failed one is still alive.
TEST(PaxCheckPersistOrder, ReattachAfterFailedPersistIsClean) {
  auto pm = pmem::PmemDevice::create_in_memory(8 << 20);
  auto other_pm = pmem::PmemDevice::create_in_memory(8 << 20);
  Checker checker;
  pm->set_checker(&checker);
  other_pm->set_checker(&checker);
  libpax::RuntimeOptions ro;
  ro.log_size = 2 * kPageSize;  // ~85 line records
  {
    auto rt = libpax::PaxRuntime::attach(pm.get(), ro).value();
    std::memset(rt->vpm_base() + kPageSize, 0x77, 32 * kPageSize);
    ASSERT_EQ(rt->persist().status().code(), StatusCode::kOutOfSpace);

    libpax::RuntimeOptions other_ro;
    other_ro.log_size = 1 << 20;
    auto other = libpax::PaxRuntime::attach(other_pm.get(), other_ro).value();
    std::memset(other->vpm_base() + kPageSize, 0x11, kPageSize);
    ASSERT_TRUE(other->persist().ok());
    std::memset(other->vpm_base() + kPageSize, 0x12, kPageSize);
    ASSERT_TRUE(other->persist_async().ok());
    ASSERT_TRUE(other->complete_persist().ok());
  }
  auto rt = libpax::PaxRuntime::attach(pm.get(), ro).value();
  EXPECT_EQ(rt->committed_epoch(), 0u);
  std::memset(rt->vpm_base() + kPageSize, 0x79, 8 * kCacheLineSize);
  auto e = rt->persist();
  ASSERT_TRUE(e.ok()) << e.status().to_string();
  std::memset(rt->vpm_base() + kPageSize, 0x7a, 8 * kCacheLineSize);
  ASSERT_TRUE(rt->persist_async().ok());
  ASSERT_TRUE(rt->complete_persist().ok());

  auto report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  rt.reset();
  pm->set_checker(nullptr);
  other_pm->set_checker(nullptr);
}

// The full libpax stack — pool format, recovery, line-tracked sync,
// sync persist, non-blocking persist, crash, re-attach — must be silent
// under an attached checker.
TEST(PaxCheckPersistOrder, FullRuntimeCycleIsClean) {
  auto pm = pmem::PmemDevice::create_in_memory(8 << 20);
  check::CheckerOptions opts;
  Checker checker(opts);
  pm->set_checker(&checker);

  libpax::RuntimeOptions ro;
  ro.log_size = 1 << 20;
  for (int round = 0; round < 2; ++round) {
    auto rt = libpax::PaxRuntime::attach(pm.get(), ro);
    ASSERT_TRUE(rt.ok()) << rt.status().to_string();
    auto& runtime = *rt.value();
    auto* base = runtime.vpm_base();
    for (std::size_t i = 0; i < 4 * kPageSize; i += 64) {
      base[i] = static_cast<std::byte>(i + round);
    }
    ASSERT_TRUE(runtime.persist().ok());
    for (std::size_t i = 0; i < kPageSize; i += 128) {
      base[i] = static_cast<std::byte>(i ^ 0x5a);
    }
    ASSERT_TRUE(runtime.persist_async().ok());
    ASSERT_TRUE(runtime.complete_persist().ok());
    runtime.sync_step();
  }
  pm->crash(pmem::CrashConfig::torn(0.5, 0x5eed));

  auto report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GT(report.diagnostics.events, 0u);
  pm->set_checker(nullptr);
}

}  // namespace
}  // namespace pax
