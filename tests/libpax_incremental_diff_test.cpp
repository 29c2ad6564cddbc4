// Tests of the line-granular incremental diff: candidate-bit collision
// fallback, digest-driven skipping, tracking state reset across
// crash/recovery, and the diffed/skipped line accounting.
#include <gtest/gtest.h>

#include <cstring>

#include "pax/common/crc.hpp"
#include "pax/libpax/runtime.hpp"

namespace pax::libpax {
namespace {

constexpr std::size_t kPool = 8 << 20;

RuntimeOptions tracked_opts() {
  RuntimeOptions o;
  o.log_size = 2 << 20;
  o.sync_batch_lines = 64;
  return o;
}

std::byte* page_base(PaxRuntime& rt, std::size_t page) {
  return rt.vpm_base() + page * kPageSize;
}

std::uint32_t crc_of_line(PaxRuntime& rt, std::size_t page,
                          std::size_t line) {
  return crc32c(page_base(rt, page) + line * kCacheLineSize, kCacheLineSize);
}

TEST(IncrementalDiffTest, DigestCollisionFallsBackToMemcmp) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  constexpr std::size_t kPage = 3;
  {
    auto rt = PaxRuntime::attach(pm.get(), tracked_opts()).value();
    std::memset(page_base(*rt, kPage), 0xA1, kCacheLineSize);
    ASSERT_TRUE(rt->persist().ok());  // seeds the page's digests
    ASSERT_TRUE(rt->region().line_digests_valid(PageIndex{kPage}));

    // New epoch: line 0 <- B. The store faults (the page was re-protected
    // by persist), so line 0's candidate bit is set.
    std::memset(page_base(*rt, kPage), 0xB2, kCacheLineSize);
    ASSERT_EQ(rt->region().candidate_lines(PageIndex{kPage}) & 1u, 1u);

    // Simulate a CRC collision: overwrite the stored digest with the CRC of
    // the *new* contents while the device still holds A. Digest-only
    // tracking would falsely skip the line; the candidate bit must force
    // the memcmp and push B anyway.
    rt->region().set_line_digest(PageIndex{kPage}, 0,
                                 crc_of_line(*rt, kPage, 0));

    const SyncStats before = rt->sync_stats();
    ASSERT_TRUE(rt->persist().ok());
    const SyncStats after = rt->sync_stats();
    EXPECT_GE(after.lines_synced - before.lines_synced, 1u);
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), tracked_opts()).value();
  EXPECT_EQ(page_base(*rt, kPage)[0], std::byte{0xB2});
}

TEST(IncrementalDiffTest, DigestMatchSkipsLinesWithoutTouchingShadow) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  auto rt = PaxRuntime::attach(pm.get(), tracked_opts()).value();
  constexpr std::size_t kPage = 5;
  std::memset(page_base(*rt, kPage), 0x11, kPageSize);
  ASSERT_TRUE(rt->persist().ok());
  // Persist re-protected the page: the candidate set restarts empty.
  EXPECT_EQ(rt->region().candidate_lines(PageIndex{kPage}), 0u);

  // Touch exactly one line. Only that line (fault bit + digest mismatch)
  // may reach the memcmp; the other 63 must be skipped outright.
  page_base(*rt, kPage)[0] = std::byte{0x22};
  const SyncStats before = rt->sync_stats();
  ASSERT_TRUE(rt->persist().ok());
  const SyncStats after = rt->sync_stats();
  EXPECT_EQ(after.pages_scanned - before.pages_scanned, 1u);
  EXPECT_EQ(after.lines_diffed - before.lines_diffed, 1u);
  EXPECT_EQ(after.lines_skipped - before.lines_skipped, kLinesPerPage - 1);
  EXPECT_EQ(after.lines_synced - before.lines_synced, 1u);
}

TEST(IncrementalDiffTest, TrackingStateResetsAcrossCrashRecovery) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  constexpr std::size_t kPage = 7;
  {
    auto rt = PaxRuntime::attach(pm.get(), tracked_opts()).value();
    std::memset(page_base(*rt, kPage), 0x33, kPageSize);
    ASSERT_TRUE(rt->persist().ok());
    ASSERT_TRUE(rt->region().line_digests_valid(PageIndex{kPage}));
    // Uncommitted garbage that must die with the crash.
    std::memset(page_base(*rt, kPage), 0xEE, kPageSize);
  }
  pm->crash(pmem::CrashConfig::torn(0.5, 99));

  auto rt = PaxRuntime::attach(pm.get(), tracked_opts()).value();
  // A fresh region: no page may carry digests or candidate bits from the
  // previous life — the first diff of each page is a full rebuild.
  EXPECT_FALSE(rt->region().line_digests_valid(PageIndex{kPage}));
  EXPECT_EQ(rt->region().candidate_lines(PageIndex{kPage}), 0u);
  for (std::size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(page_base(*rt, kPage)[i], std::byte{0x33}) << "byte " << i;
  }

  page_base(*rt, kPage)[0] = std::byte{0x44};
  const SyncStats before = rt->sync_stats();
  ASSERT_TRUE(rt->persist().ok());
  const SyncStats after = rt->sync_stats();
  EXPECT_GE(after.digest_rebuilds - before.digest_rebuilds, 1u);
  EXPECT_TRUE(rt->region().line_digests_valid(PageIndex{kPage}));
}

TEST(IncrementalDiffTest, EveryScannedLineIsDiffedOrSkipped) {
  // A sparse multi-epoch workload: per scanned page each of the 64 lines is
  // either memcmp'd or skipped, and the recovered bytes are the last
  // committed epoch's.
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  int last = 0;
  {
    auto rt = PaxRuntime::attach(pm.get(), tracked_opts()).value();
    for (int epoch = 0; epoch < 3; ++epoch) {
      last = 0x50 + epoch;
      for (std::size_t p = 1; p <= 6; ++p) {
        for (std::size_t l = 0; l < 4; ++l) {
          page_base(*rt, p)[l * kCacheLineSize] = static_cast<std::byte>(last);
        }
      }
      ASSERT_TRUE(rt->persist().ok());
    }
    const SyncStats s = rt->sync_stats();
    EXPECT_EQ(s.lines_diffed + s.lines_skipped,
              s.pages_scanned * kLinesPerPage);
    EXPECT_GT(s.lines_skipped, 0u);  // tracking earns skips
    EXPECT_GE(s.lines_synced, 3 * 6 * 4u);  // plus page 0's heap format
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), tracked_opts()).value();
  for (std::size_t p = 1; p <= 6; ++p) {
    for (std::size_t l = 0; l < 4; ++l) {
      EXPECT_EQ(page_base(*rt, p)[l * kCacheLineSize],
                static_cast<std::byte>(last))
          << "page " << p << " line " << l;
    }
  }
}

}  // namespace
}  // namespace pax::libpax
