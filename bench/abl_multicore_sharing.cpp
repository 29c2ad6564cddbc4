// Ablation 9 — multi-core sharing (§3.5 / §6 "highly concurrent workloads").
//
// With several cores behind one PAX device, coherence traffic — and hence
// the device's message load, the §5.1 pipeline bottleneck — depends on how
// much the cores *share*. This bench sweeps the fraction of stores that
// target a common hot region (the rest go to per-core private regions) on a
// 4-core coherence domain and reports device messages, cross-core snoops,
// and undo records per operation. PAX's per-epoch logging is insensitive to
// ownership migration: a line bouncing between cores is still logged once.
#include <cinttypes>
#include <cstdio>

#include "pax/coherence/domain.hpp"
#include "pax/common/rng.hpp"
#include "pax/device/pax_device.hpp"
#include "pax/pmem/pool.hpp"

namespace {

using namespace pax;

constexpr unsigned kCores = 4;
constexpr std::uint64_t kOps = 100000;
constexpr std::uint64_t kSharedLines = 512;
constexpr std::uint64_t kPrivateLinesPerCore = 2048;

struct Row {
  double shared_fraction;
  double dev_msgs_per_op;
  double snoops_per_op;
  double undo_records_per_op;
  double invalidations_per_op;
};

Row run(double shared_fraction) {
  auto pm = pmem::PmemDevice::create_in_memory(64 << 20);
  auto pool = pmem::PmemPool::create(pm.get(), 16 << 20).value();
  device::PaxDevice dev(&pool, device::DeviceConfig::defaults());
  coherence::CoherenceDomain domain(&dev, coherence::HostCacheConfig{},
                                    kCores);

  const PoolOffset shared_base = pool.data_offset();
  const PoolOffset private_base =
      shared_base + kSharedLines * kCacheLineSize;

  Xoshiro256 rng(13);
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const unsigned core = rng.next_below(kCores);
    PoolOffset at;
    if (rng.next_bool(shared_fraction)) {
      at = shared_base + rng.next_below(kSharedLines) * kCacheLineSize;
    } else {
      at = private_base + (core * kPrivateLinesPerCore +
                           rng.next_below(kPrivateLinesPerCore)) *
                              kCacheLineSize;
    }
    if (!domain.core(core).store_u64(at, rng.next()).is_ok()) std::abort();
    if ((i + 1) % 16384 == 0) {
      if (!dev.persist(domain.pull_fn()).ok()) std::abort();
    }
  }
  if (!dev.persist(domain.pull_fn()).ok()) std::abort();

  std::uint64_t snoops = 0, invalidations = 0, msgs = 0;
  for (unsigned c = 0; c < kCores; ++c) {
    const auto& s = domain.core(c).stats();
    snoops += s.snoops_served;
    msgs += s.rd_shared + s.rd_own + s.dirty_evicts;
    invalidations += s.dirty_evicts;  // includes snoop-invalidation flushes
  }
  const auto ds = dev.stats();
  return Row{shared_fraction, double(msgs) / kOps, double(snoops) / kOps,
             double(ds.first_touch_logs) / kOps,
             double(invalidations) / kOps};
}

}  // namespace

int main() {
  std::printf("=== Ablation 9: multi-core sharing degree (4 cores) ===\n");
  std::printf("%" PRIu64 " stores, %" PRIu64 " shared lines vs %" PRIu64
              " private lines/core, persist every 16k\n\n",
              kOps, kSharedLines, kPrivateLinesPerCore);
  std::printf("%14s %14s %12s %14s %16s\n", "shared frac", "dev msgs/op",
              "snoops/op", "undo rec/op", "dirty evicts/op");
  for (double f : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    Row r = run(f);
    std::printf("%14.2f %14.3f %12.3f %14.3f %16.3f\n", r.shared_fraction,
                r.dev_msgs_per_op, r.snoops_per_op, r.undo_records_per_op,
                r.invalidations_per_op);
  }
  std::printf(
      "\nreading: sharing multiplies coherence traffic (snoops, ownership\n"
      "transfers) — the device pipeline's §5.1 concern — but undo records\n"
      "per op FALL with sharing (a hot line is logged once per epoch no\n"
      "matter how many cores fight over it): PAX's logging cost is bounded\n"
      "by the write set, not by contention.\n");
  return 0;
}
