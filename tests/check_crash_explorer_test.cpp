// Seeded-bug coverage for CrashExplorer: each deleted ordering edge must be
// localized to its exact first bad crash index, and the correct twin of the
// same workload must enumerate clean at every crash point (k = 1).
#include "pax/check/crashpoint.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "pax/pmem/pmem_device.hpp"
#include "pax/pmem/pool.hpp"
#include "pax/wal/wal.hpp"
#include "test_util.hpp"

namespace pax {
namespace {

using check::CrashExplorer;
using check::CrashExplorerOptions;
using check::CrashOracle;
using check::ExplorationResult;

constexpr std::size_t kDeviceBytes = 1 << 20;
constexpr std::size_t kLogBytes = 64 * 1024;
constexpr Epoch kEpochs = 3;
constexpr std::uint64_t kLinesPerEpoch = 2;

struct WalBugs {
  bool skip_undo_flush = false;    // Bug A: write-back before undo durable
  bool skip_commit_drain = false;  // Bug B: commit without fence
};

// The §3.3 undo-WAL protocol over a raw device, with both ordering edges
// explicit. Each bug switch deletes one edge; `vulnerable_out` captures the
// first device event index at which the deleted edge matters (set once, on
// whichever execution reaches it first — the count is identical on every
// run, which the explorer verifies). `salt` shifts every data value.
Status wal_workload(pmem::PmemDevice& dev, CrashOracle& oracle,
                    const WalBugs& bugs, std::uint64_t* vulnerable_out,
                    std::uint64_t salt = 0) {
  auto pool = pmem::PmemPool::create(&dev, kLogBytes);
  if (!pool.ok()) return pool.status();
  auto& p = pool.value();
  PAX_RETURN_IF_ERROR(oracle.note_commit(p.committed_epoch()));
  const std::size_t half = (p.log_size() / 2) & ~(kCacheLineSize - 1);
  wal::LogWriter log(&dev, p.log_offset(), half);
  for (Epoch e = 1; e <= kEpochs; ++e) {
    for (std::uint64_t i = 0; i < kLinesPerEpoch; ++i) {
      const LineIndex line{p.data_offset() / kCacheLineSize + i};
      wal::LineUndoPayload undo;
      undo.line_index = line.value;
      undo.old_data = dev.load_line(line);
      auto end = log.append(
          e, wal::RecordType::kLineUndo,
          std::span<const std::byte>(
              reinterpret_cast<const std::byte*>(&undo), sizeof(undo)));
      if (!end.ok()) return end.status();
      if (!bugs.skip_undo_flush) log.flush();  // undo durable before data
      dev.store_line(line, testing::patterned_line(salt + e * 16 + i));
      dev.flush_line(line);
      if (bugs.skip_undo_flush && vulnerable_out != nullptr &&
          *vulnerable_out == 0) {
        *vulnerable_out = dev.crash_events();  // data durable, undo is not
      }
    }
    log.flush();  // no-op edge when per-line flushes ran; catch-up when not
    // Touch a data line after the log flush so the commit genuinely depends
    // on the epoch-closing drain below.
    const LineIndex line{p.data_offset() / kCacheLineSize};
    dev.store_line(line, testing::patterned_line(salt + e * 16));
    dev.flush_line(line);
    if (bugs.skip_commit_drain) {
      if (vulnerable_out != nullptr && *vulnerable_out == 0) {
        *vulnerable_out = dev.crash_events() + 1;  // the epoch-cell store
      }
    } else {
      dev.drain();
    }
    p.commit_epoch(e);
    PAX_RETURN_IF_ERROR(oracle.note_commit(e));
  }
  return Status::ok();
}

CrashExplorer make_explorer(const WalBugs& bugs,
                            std::uint64_t* vulnerable_out,
                            CrashExplorerOptions options) {
  return CrashExplorer(
      kDeviceBytes,
      [bugs, vulnerable_out](pmem::PmemDevice& dev, CrashOracle& oracle) {
        return wal_workload(dev, oracle, bugs, vulnerable_out);
      },
      std::move(options));
}

TEST(CrashExplorer, CleanWorkloadEnumeratesCleanExhaustively) {
  auto explorer = make_explorer(WalBugs{}, nullptr, {});
  auto result = explorer.explore();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const ExplorationResult& r = result.value();
  EXPECT_TRUE(r.clean()) << r.to_string();
  EXPECT_EQ(r.first_bad(), check::kNoCrashPoint);
  EXPECT_EQ(r.epochs, static_cast<std::uint64_t>(kEpochs) + 1);
  EXPECT_GT(r.total_events, 0u);
  EXPECT_GT(r.crash_points, 0u);
  // Exhaustive k=1: every point after the baseline was tested, and each
  // tested point was recovered under all three default modes.
  EXPECT_EQ(r.executions, r.crash_points + 1);
  EXPECT_EQ(r.recoveries, 3 * r.crash_points);
}

TEST(CrashExplorer, RecoveryIsJudgedAgainstTheExecutionThatCrashed) {
  // Every execution stores different bytes (its own ordinal as the salt)
  // through the same device events, as padding inside a persistent object
  // or a heap address can. Each recovery must match the commits of the
  // execution that crashed, not those of the reference pass.
  std::uint64_t executions = 0;
  CrashExplorer explorer(
      kDeviceBytes,
      [&executions](pmem::PmemDevice& dev, CrashOracle& oracle) {
        return wal_workload(dev, oracle, WalBugs{}, nullptr, ++executions);
      },
      {});
  auto result = explorer.explore();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const ExplorationResult& r = result.value();
  EXPECT_TRUE(r.clean()) << r.to_string();
  EXPECT_EQ(r.executions, executions);
  EXPECT_EQ(r.recoveries, 3 * r.crash_points);
}

TEST(CrashExplorer, WritebackBeforeUndoDurableLocalizedExactly) {
  WalBugs bugs;
  bugs.skip_undo_flush = true;
  std::uint64_t vulnerable = 0;
  CrashExplorerOptions options;
  options.modes = {{"drop_all", pmem::CrashConfig::drop_all()}};
  options.max_findings = 1;  // points ascend, so the first finding is min
  auto explorer = make_explorer(bugs, &vulnerable, options);
  auto result = explorer.explore();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const ExplorationResult& r = result.value();
  ASSERT_FALSE(r.clean());
  ASSERT_NE(vulnerable, 0u);
  // First bad point: the flush that made the data line durable while its
  // undo record was still in the pending overlay.
  EXPECT_EQ(r.first_bad(), vulnerable) << r.to_string();
  EXPECT_NE(r.findings.front().detail.find("diverges"), std::string::npos)
      << r.findings.front().detail;
}

TEST(CrashExplorer, CommitWithoutFenceLocalizedExactly) {
  WalBugs bugs;
  bugs.skip_commit_drain = true;
  std::uint64_t vulnerable = 0;
  CrashExplorerOptions options;
  options.modes = {{"drop_all", pmem::CrashConfig::drop_all()}};
  options.max_findings = 1;
  auto explorer = make_explorer(bugs, &vulnerable, options);
  auto result = explorer.explore();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const ExplorationResult& r = result.value();
  ASSERT_FALSE(r.clean());
  ASSERT_NE(vulnerable, 0u);
  // The device state is consistent (our simulated flush is immediately
  // durable), so only the PaxCheck audit of the truncated stream sees this
  // bug — at the first crash point whose prefix contains the unfenced
  // epoch commit, i.e. the epoch-cell store itself.
  EXPECT_EQ(r.first_bad(), vulnerable) << r.to_string();
  EXPECT_NE(r.findings.front().detail.find("commit"), std::string::npos)
      << r.findings.front().detail;
}

TEST(CrashExplorer, ApplicationInvariantFailuresBecomeFindings) {
  auto explorer = make_explorer(WalBugs{}, nullptr, {});
  explorer.set_invariant([](pmem::PmemPool&, Epoch) {
    return corruption("app invariant rejected");
  });
  auto result = explorer.explore();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  ASSERT_FALSE(result.value().clean());
  EXPECT_NE(
      result.value().findings.front().detail.find("app invariant rejected"),
      std::string::npos);
}

TEST(CrashExplorer, SampledPointsCoverTheTail) {
  CrashExplorerOptions options;
  options.max_crash_points = 7;
  options.modes = {{"drop_all", pmem::CrashConfig::drop_all()}};
  auto explorer = make_explorer(WalBugs{}, nullptr, options);
  auto result = explorer.explore();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().clean()) << result.value().to_string();
  EXPECT_LE(result.value().crash_points, 7u);
  // Sampling keeps the last crash point (teardown-adjacent bugs).
  EXPECT_EQ(result.value().executions, result.value().crash_points + 1);
}

TEST(CrashExplorer, WorkloadWithoutSnapshotsIsRejected) {
  CrashExplorer explorer(
      kDeviceBytes,
      [](pmem::PmemDevice& dev, CrashOracle&) -> Status {
        auto pool = pmem::PmemPool::create(&dev, kLogBytes);
        return pool.ok() ? Status::ok() : pool.status();
      },
      {});
  auto result = explorer.explore();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().to_string().find("note_commit"),
            std::string::npos);
}

}  // namespace
}  // namespace pax
