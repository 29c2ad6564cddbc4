// Crash consistency of cross-shard epoch group commit (the PaxKV store).
//
// A deterministic multi-shard workload commits W waves through
// EpochGroupCommit::commit_wave(). During the run we record, after every
// wave, each shard's full contents and the armed device's event counter.
// Then, CrashExplorer-style, a consistent cut is captured mid-run on one
// shard (arm_crash_point) and the store is re-attached on the post-crash
// image. The contract:
//
//   * Per-shard epoch cut: the recovered shard equals EXACTLY one of the
//     recorded wave snapshots — never a torn state between waves.
//   * No acked wave lost: every wave whose commit_wave() returned before
//     the cut's event count is recovered (durable acks survive).
//   * Shards crashed after the final wave recover the final wave — no
//     shard ends up ahead of or behind the group's committed cut.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pax/kv/store.hpp"
#include "pax/pmem/pmem_device.hpp"
#include "test_util.hpp"

namespace pax::kv {
namespace {

using testing::cat;

constexpr std::size_t kShards = 3;
constexpr std::size_t kWaves = 12;
constexpr std::size_t kOpsPerWave = 30;

KvStoreOptions crash_options() {
  KvStoreOptions options;
  options.shards = kShards;
  options.shard_pool_bytes = 8 << 20;
  options.map_shards = 4;
  options.runtime.log_size = 1 << 20;  // leave room for data in 8 MiB
  // Fixed per-shard vPM bases (KvStore strides this hint by shard): the
  // reincarnated post-crash device must map where the original did or the
  // recovered map's interior pointers dangle. TSan builds must stay in
  // TSan's low app range (see vpm_region.cpp), clear of the library's own
  // sequential hints at 0x0040'0000'0000.
#if defined(__SANITIZE_THREAD__)
#define PAX_KV_TEST_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PAX_KV_TEST_UNDER_TSAN 1
#endif
#endif
#ifdef PAX_KV_TEST_UNDER_TSAN
  options.runtime.vpm_base_hint = 0x0050'0000'0000ULL;
#else
  options.runtime.vpm_base_hint = 0x7d00'0000'0000ULL;
#endif
  return options;
}

using ShardContents = std::map<std::string, std::string>;

ShardContents contents(const KvStore& store, std::size_t shard) {
  ShardContents out;
  for (auto& [k, v] : store.dump_shard(shard)) out.emplace(k, v);
  return out;
}

// The deterministic workload: wave w writes keys "w<w>-k<i>" (uniform over
// all shards via the store's FNV slicing) and rewrites a rolling window of
// earlier keys, with a deletion sprinkled in, then issues one group wave.
struct WaveRecord {
  std::vector<ShardContents> shard_contents;  // [shard]
  std::uint64_t armed_device_events = 0;
};

std::string wave_key(std::size_t wave, std::size_t i) {
  return cat("w", std::to_string(wave), "-k", std::to_string(i));
}

std::vector<WaveRecord> run_workload(KvStore& store,
                                     const pmem::PmemDevice& armed) {
  std::vector<WaveRecord> records;
  for (std::size_t w = 0; w < kWaves; ++w) {
    for (std::size_t i = 0; i < kOpsPerWave; ++i) {
      store.put(wave_key(w, i),
                cat("v", std::to_string(w * 1000 + i)));
      if (w > 0 && i % 5 == 0) {
        store.put(wave_key(w - 1, i),
                  cat("rewritten-by-w", std::to_string(w)));
      }
      if (w > 1 && i % 11 == 0) {
        store.erase(wave_key(w - 2, i));
      }
    }
    auto wave = store.group().commit_wave();
    if (!wave.ok()) std::abort();

    WaveRecord rec;
    for (std::size_t s = 0; s < kShards; ++s) {
      rec.shard_contents.push_back(contents(store, s));
    }
    rec.armed_device_events = armed.crash_events();
    records.push_back(std::move(rec));
  }
  return records;
}

struct Fixture {
  std::vector<std::unique_ptr<pmem::PmemDevice>> devices;
  std::vector<pmem::PmemDevice*> ptrs;

  Fixture() {
    for (std::size_t s = 0; s < kShards; ++s) {
      devices.push_back(
          pmem::PmemDevice::create_in_memory(crash_options()
                                                 .shard_pool_bytes));
      ptrs.push_back(devices.back().get());
    }
  }
};

// Which recorded wave a recovered shard matches; -1 when none (empty
// pre-first-wave state maps to -1 too, reported via `empty_ok`).
int match_wave(const ShardContents& got,
               const std::vector<WaveRecord>& records, std::size_t shard) {
  for (std::size_t w = records.size(); w-- > 0;) {
    if (records[w].shard_contents[shard] == got) return static_cast<int>(w);
  }
  return -1;
}

TEST(KvGroupCommitCrash, FullCrashAfterFinalWaveRecoversFinalWave) {
  Fixture fx;
  std::vector<WaveRecord> records;
  {
    auto store = KvStore::attach(fx.ptrs, crash_options());
    ASSERT_TRUE(store.ok()) << store.status().to_string();
    records = run_workload(*store.value(), *fx.ptrs[0]);
  }
  for (auto& dev : fx.devices) dev->crash(pmem::CrashConfig::drop_all());

  auto recovered = KvStore::attach(fx.ptrs, crash_options());
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_TRUE(recovered.value()->recovered(s)) << s;
    EXPECT_EQ(contents(*recovered.value(), s),
              records.back().shard_contents[s])
        << "shard " << s << " did not recover the final wave";
  }
}

TEST(KvGroupCommitCrash, MidRunCutLandsOnAWaveBoundary) {
  // Probe run: learn the armed shard's total event count.
  std::uint64_t total_events = 0;
  {
    Fixture probe;
    auto store = KvStore::attach(probe.ptrs, crash_options());
    ASSERT_TRUE(store.ok());
    run_workload(*store.value(), *probe.ptrs[0]);
    total_events = probe.ptrs[0]->crash_events();
  }
  ASSERT_GT(total_events, 0u);

  // Sweep sampled crash points across the armed shard's event timeline.
  for (const double frac : {0.05, 0.2, 0.4, 0.6, 0.8, 0.95}) {
    const auto point =
        static_cast<std::uint64_t>(static_cast<double>(total_events) * frac);
    Fixture fx;
    fx.ptrs[0]->arm_crash_point(point);

    std::vector<WaveRecord> records;
    {
      auto store = KvStore::attach(fx.ptrs, crash_options());
      ASSERT_TRUE(store.ok());
      records = run_workload(*store.value(), *fx.ptrs[0]);
    }
    auto cut = fx.ptrs[0]->take_crash_cut();
    if (!cut.has_value()) continue;  // point beyond this run's events

    // Shard 0 reincarnates from the mid-run cut; shards 1..N-1 crash at
    // end of run (their committed state is the final wave).
    auto shard0 = pmem::PmemDevice::create_in_memory_from(
        cut->resolve(pmem::CrashConfig::drop_all()));
    std::vector<pmem::PmemDevice*> ptrs = fx.ptrs;
    ptrs[0] = shard0.get();
    for (std::size_t s = 1; s < kShards; ++s) {
      fx.ptrs[s]->crash(pmem::CrashConfig::drop_all());
    }

    auto recovered = KvStore::attach(ptrs, crash_options());
    ASSERT_TRUE(recovered.ok())
        << "point " << point << ": " << recovered.status().to_string();

    // (1) Consistent per-shard cut: the recovered state IS some wave.
    const ShardContents got = contents(*recovered.value(), 0);
    const int wave = match_wave(got, records, 0);
    if (wave < 0) {
      // Only the pre-first-wave (empty) state is also a legal cut.
      EXPECT_TRUE(got.empty())
          << "point " << point
          << ": shard 0 recovered a state matching no committed wave";
    }

    // (2) No acked wave lost: every wave whose commit returned before the
    // cut must have survived on the armed shard.
    int last_acked_before_cut = -1;
    for (std::size_t w = 0; w < records.size(); ++w) {
      if (records[w].armed_device_events <= cut->after_events) {
        last_acked_before_cut = static_cast<int>(w);
      }
    }
    EXPECT_GE(wave, last_acked_before_cut)
        << "point " << point << ": wave " << last_acked_before_cut
        << " was acknowledged durable but shard 0 recovered wave " << wave;

    // (3) The unarmed shards recover the group's final committed wave.
    for (std::size_t s = 1; s < kShards; ++s) {
      EXPECT_EQ(contents(*recovered.value(), s),
                records.back().shard_contents[s])
          << "point " << point << ", shard " << s;
    }
  }
}

}  // namespace
}  // namespace pax::kv
