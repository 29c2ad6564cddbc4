// Concurrency torture for the host sync path, designed to run under TSan:
// mutator threads hammer disjoint slabs of vPM with plain stores while the
// §6 persist_async() drain pushes and commits the previous round's private
// snapshot underneath them; the persists themselves run at quiesced round
// boundaries. After a crash, recovery must reproduce the last persisted
// round exactly, with the mutex and the ring undo append.
#include <gtest/gtest.h>

#include <barrier>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "pax/check/checker.hpp"
#include "pax/check/trace_file.hpp"
#include "pax/libpax/runtime.hpp"

namespace pax::libpax {
namespace {

// When PAX_TRACE_DIR is set (the CI analyze step), each crash/recover cycle
// records its PaxCheck event stream as a .paxevt for the offline PaxScope
// pass; a counter disambiguates the cycles within one process.
const char* trace_dir() { return std::getenv("PAX_TRACE_DIR"); }
int trace_counter = 0;

void maybe_write_trace(check::Checker& checker, const char* mode) {
  const char* dir = trace_dir();
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/sync_torture_" + mode + "_" +
                           std::to_string(trace_counter++) + ".paxevt";
  ASSERT_TRUE(check::write_trace(path, checker.recorded_events()).is_ok())
      << path;
}

constexpr std::size_t kPool = 32 << 20;
constexpr int kThreads = 4;
constexpr std::size_t kPagesPerThread = 8;
constexpr int kRounds = 6;

// Thread t owns pages [1 + t*kPagesPerThread, 1 + (t+1)*kPagesPerThread).
std::size_t slab_offset(int t) {
  return (1 + static_cast<std::size_t>(t) * kPagesPerThread) * kPageSize;
}
constexpr std::size_t kSlabBytes = kPagesPerThread * kPageSize;

int pattern(int t, int round) { return 0x20 + t * 37 + round * 11; }

// One full crash/recover cycle under `opts`; returns the recovered image of
// all slabs. The final round is committed with a blocking persist() so the
// expected recovery point is deterministic regardless of `crash` mode: any
// post-commit garbage line that survives the crash lottery has a durable
// undo record (logged before its write-back), so recovery rolls it back.
std::vector<std::byte> run_and_recover(pmem::PmemDevice* pm,
                                       const RuntimeOptions& opts,
                                       const pmem::CrashConfig& crash,
                                       const char* mode) {
  // The whole cycle — mutators racing the drain, async persists, crash,
  // recovery — runs under PaxCheck; any persist-order or lock-discipline
  // violation fails the test.
  check::CheckerOptions checker_opts;
  checker_opts.record_events = trace_dir() != nullptr;
  check::Checker checker(checker_opts);
  pm->set_checker(&checker);
  {
    auto rt = PaxRuntime::attach(pm, opts).value();
    std::barrier round_barrier(kThreads + 1);
    std::vector<std::thread> mutators;
    for (int t = 0; t < kThreads; ++t) {
      mutators.emplace_back([&, t] {
        for (int r = 0; r < kRounds; ++r) {
          std::memset(rt->vpm_base() + slab_offset(t), pattern(t, r),
                      kSlabBytes);
          round_barrier.arrive_and_wait();  // quiesce for the persist
          round_barrier.arrive_and_wait();  // resume mutating
        }
      });
    }
    for (int r = 0; r < kRounds; ++r) {
      round_barrier.arrive_and_wait();
      // All mutators parked: the §3.5 quiescence contract holds.
      if (r + 1 == kRounds) {
        auto e = rt->persist();
        EXPECT_TRUE(e.ok()) << e.status().to_string();
      } else {
        auto e = rt->persist_async();
        EXPECT_TRUE(e.ok()) << e.status().to_string();
      }
      round_barrier.arrive_and_wait();
    }
    for (auto& m : mutators) m.join();
    // Dirty the slabs once more and stage the garbage into the device
    // *without* persisting; none of this may survive.
    for (int t = 0; t < kThreads; ++t) {
      std::memset(rt->vpm_base() + slab_offset(t), 0xEE, kSlabBytes);
    }
    rt->sync_step();
  }  // teardown without persist: crash semantics
  pm->crash(crash);

  auto rt = PaxRuntime::attach(pm, opts).value();
  std::vector<std::byte> image(kThreads * kSlabBytes);
  for (int t = 0; t < kThreads; ++t) {
    std::memcpy(image.data() + t * kSlabBytes, rt->vpm_base() + slab_offset(t),
                kSlabBytes);
  }
  auto report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  pm->set_checker(nullptr);
  maybe_write_trace(checker, mode);
  return image;
}

// The two configurations, each of whose recoveries must hold the final
// round's pattern. Both run the one persist path with snapshot drains
// racing the resumed mutators; the second appends undo records through the
// lock-free ring.
RuntimeOptions tracked_config() {
  RuntimeOptions o;
  o.sync_batch_lines = 32;
  return o;
}

RuntimeOptions ring_config() {
  RuntimeOptions o = tracked_config();
  o.log_ring_slots = 128;
  return o;
}

void run_all_configs_and_compare(const pmem::CrashConfig& crash,
                                 const char* mode) {
  const struct {
    const char* name;
    RuntimeOptions opts;
  } configs[] = {{"tracked", tracked_config()},
                 {"ring", ring_config()}};
  for (const auto& config : configs) {
    auto pm = pmem::PmemDevice::create_in_memory(kPool);
    const std::vector<std::byte> image =
        run_and_recover(pm.get(), config.opts, crash, mode);
    // Every slab byte holds the final round's pattern; the 0xEE garbage
    // died (dropped outright, or rolled back off its undo record if it
    // survived).
    for (int t = 0; t < kThreads; ++t) {
      const auto expected =
          static_cast<std::byte>(pattern(t, kRounds - 1) & 0xff);
      for (std::size_t i = 0; i < kSlabBytes; ++i) {
        ASSERT_EQ(image[t * kSlabBytes + i], expected)
            << mode << " " << config.name << " slab " << t << " byte " << i;
      }
    }
  }
}

TEST(HostSyncTortureTest, RacingDrainRecoversLastPersistedRound) {
  run_all_configs_and_compare(pmem::CrashConfig::drop_all(), "drop_all");
}

TEST(HostSyncTortureTest, RandomLineLossRecoversLastPersistedRound) {
  run_all_configs_and_compare(pmem::CrashConfig::random(0.5, 0xfeed),
                              "random");
}

TEST(HostSyncTortureTest, TornLinesRecoverLastPersistedRound) {
  run_all_configs_and_compare(pmem::CrashConfig::torn(0.6, 0xbead), "torn");
}

}  // namespace
}  // namespace pax::libpax
