// Tests of the line-granular incremental diff: the 64-bit line digest
// (single-word sensitivity, a constructed CRC32C collision), digest-driven
// skipping, tracking state reset across crash/recovery, and the
// diffed/skipped line accounting.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <random>
#include <utility>

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

using Line = std::array<std::byte, kCacheLineSize>;

// Two different lines with equal CRC32C. CRC is affine over GF(2): with
// L(d) = crc(d) ^ crc(0), crc(a ^ d) == crc(a) ^ L(d), so any nonzero d in
// the kernel of L gives a twin. Gaussian elimination over 33 single-bit
// deltas (more vectors than L's 32 output bits) finds a dependent subset.
std::pair<Line, Line> crc32c_twins() {
  Line a;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::byte>(i * 37 + 11);
  }
  const Line zero{};
  const std::uint32_t crc_zero = crc32c(zero.data(), zero.size());
  auto bit_of = [](std::size_t i) { return i * 15; };  // spread over words
  struct Row {
    std::uint32_t v = 0;
    std::uint64_t deltas = 0;  // which single-bit deltas XOR to v
  };
  std::array<Row, 32> basis{};
  std::uint64_t kernel = 0;
  for (std::size_t i = 0; i < 33 && kernel == 0; ++i) {
    Line e{};
    e[bit_of(i) / 8] = static_cast<std::byte>(1u << (bit_of(i) % 8));
    Row r{crc32c(e.data(), e.size()) ^ crc_zero, std::uint64_t{1} << i};
    for (int b = 31; b >= 0 && r.v != 0; --b) {
      if (((r.v >> b) & 1) == 0) continue;
      if (basis[b].v == 0) {
        basis[b] = r;
        r.v = 0;
        r.deltas = 0;
      } else {
        r.v ^= basis[b].v;
        r.deltas ^= basis[b].deltas;
      }
    }
    kernel = r.deltas;  // nonzero only when r reduced to zero
  }
  Line b = a;
  for (std::size_t i = 0; i < 33; ++i) {
    if ((kernel >> i) & 1) {
      b[bit_of(i) / 8] ^= static_cast<std::byte>(1u << (bit_of(i) % 8));
    }
  }
  return {a, b};
}

TEST(LineDigestTest, CrcTwinsAreDistinctLinesWithDistinctDigests) {
  const auto [a, b] = crc32c_twins();
  ASSERT_NE(a, b);
  ASSERT_EQ(crc32c(a.data(), a.size()), crc32c(b.data(), b.size()));
  EXPECT_NE(line_digest(a.data()), line_digest(b.data()));
}

TEST(LineDigestTest, EverySingleWordChangeChangesTheDigest) {
  std::mt19937_64 rng(7);
  std::array<std::uint64_t, kCacheLineSize / 8> words{};
  const auto* bytes = reinterpret_cast<const std::byte*>(words.data());
  for (int trial = 0; trial < 2000; ++trial) {
    if (trial > 0) {  // trial 0 keeps the all-zero line
      for (auto& w : words) w = rng();
    }
    const std::uint64_t d = line_digest(bytes);
    for (std::size_t i = 0; i < words.size(); ++i) {
      const std::uint64_t saved = words[i];
      for (int k = 0; k < 4; ++k) {
        // A single flipped bit, then arbitrary nonzero deltas.
        const std::uint64_t delta =
            k == 0 ? std::uint64_t{1} << (rng() % 64) : rng() | 1;
        words[i] = saved ^ delta;
        ASSERT_NE(line_digest(bytes), d)
            << "trial " << trial << " word " << i << " delta " << delta;
      }
      words[i] = saved;
    }
  }
}

TEST(IncrementalDiffTest, CrcCollidingRewriteIsNotLost) {
  // Line 0 goes from A to its CRC32C twin B while its page is already
  // writable (line 5's store came first), so only the line digest can tell
  // that line 0 changed: a CRC32C digest would skip it and lose B at the
  // crash.
  const auto [a, b] = crc32c_twins();
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  constexpr std::size_t kPage = 3;
  {
    auto rt = PaxRuntime::attach(pm.get(), tracked_opts()).value();
    std::memcpy(page_base(*rt, kPage), a.data(), a.size());
    ASSERT_TRUE(rt->persist().ok());  // seeds the page's digests

    page_base(*rt, kPage)[5 * kCacheLineSize] = std::byte{0x55};
    std::memcpy(page_base(*rt, kPage), b.data(), b.size());
    ASSERT_TRUE(rt->persist().ok());
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), tracked_opts()).value();
  EXPECT_EQ(std::memcmp(page_base(*rt, kPage), b.data(), b.size()), 0);
  EXPECT_EQ(page_base(*rt, kPage)[5 * kCacheLineSize], std::byte{0x55});
}

TEST(IncrementalDiffTest, DigestMatchSkipsLinesWithoutTouchingShadow) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  auto rt = PaxRuntime::attach(pm.get(), tracked_opts()).value();
  constexpr std::size_t kPage = 5;
  std::memset(page_base(*rt, kPage), 0x11, kPageSize);
  ASSERT_TRUE(rt->persist().ok());

  // Touch exactly one line. Only that line (digest mismatch) may reach the
  // memcmp; the other 63 must be skipped outright.
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
    const SyncStats before = rt->sync_stats();
    ASSERT_TRUE(rt->persist().ok());
    ASSERT_GE(rt->sync_stats().digest_rebuilds - before.digest_rebuilds, 1u);
    // Uncommitted garbage that must die with the crash.
    std::memset(page_base(*rt, kPage), 0xEE, kPageSize);
  }
  pm->crash(pmem::CrashConfig::torn(0.5, 99));

  auto rt = PaxRuntime::attach(pm.get(), tracked_opts()).value();
  // A fresh runtime: no page carries digests from the previous life — the
  // first diff of each page is a full rebuild.
  for (std::size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(page_base(*rt, kPage)[i], std::byte{0x33}) << "byte " << i;
  }

  page_base(*rt, kPage)[0] = std::byte{0x44};
  const SyncStats before = rt->sync_stats();
  ASSERT_TRUE(rt->persist().ok());
  const SyncStats after = rt->sync_stats();
  EXPECT_GE(after.digest_rebuilds - before.digest_rebuilds, 1u);
  EXPECT_EQ(after.lines_diffed - before.lines_diffed, kLinesPerPage);

  // Rebuilt: the next touch of the page diffs only the changed line.
  page_base(*rt, kPage)[0] = std::byte{0x45};
  ASSERT_TRUE(rt->persist().ok());
  EXPECT_EQ(rt->sync_stats().lines_diffed - after.lines_diffed, 1u);
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
