// Ablation 1 — group-commit interval (§3.2).
//
// The paper: "the application issues persist() after a batch of operations,
// which works as a form of group commit … libpax can issue persist()
// periodically to limit undo log growth." This bench quantifies both sides
// of that trade-off on the *functional* libpax stack:
//
//   * cost amortization: first writes to a protected page ("faults"), undo
//     records, and PM write-backs per operation drop as the interval grows
//     (first-touch costs amortize);
//   * log footprint: the peak undo-log size grows with the interval.
//
// Plus the modelled throughput effect from the Fig 2b DES.
#include <cinttypes>
#include <cstdio>
#include <thread>

#include "pax/common/rng.hpp"
#include "pax/libpax/persistent.hpp"
#include "pax/libpax/runtime.hpp"
#include "pax/model/throughput.hpp"

namespace {

using namespace pax;

using MapAlloc =
    libpax::PaxStlAllocator<std::pair<const std::uint64_t, std::uint64_t>>;
using PMap = std::unordered_map<std::uint64_t, std::uint64_t,
                                std::hash<std::uint64_t>,
                                std::equal_to<std::uint64_t>, MapAlloc>;

struct Row {
  std::uint64_t interval;
  double faults_per_op;
  double undo_records_per_op;
  double log_bytes_per_op;
  double peak_log_bytes;
  double pm_writeback_lines_per_op;
  double modelled_mops32;
};

Row run(std::uint64_t interval) {
  constexpr std::uint64_t kOps = 40000;
  constexpr std::uint64_t kKeySpace = 20000;

  libpax::RuntimeOptions opts;
  opts.log_size = 32 << 20;
  auto rt = libpax::PaxRuntime::create_in_memory(256 << 20, opts).value();
  auto map = libpax::Persistent<PMap>::open(*rt).value();
  (void)rt->persist();  // commit heap formatting

  const auto base = rt->device().stats();
  const auto base_log = rt->device().log_stats();
  const auto base_faults = rt->region().fault_count();

  Xoshiro256 rng(99);
  double peak_log = 0;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    (*map)[1 + rng.next_below(kKeySpace)] = rng.next();
    if ((i + 1) % interval == 0) {
      rt->sync_step();  // stage undo records ahead of the persist
      peak_log =
          std::max(peak_log, double(rt->device().log_bytes_in_use()));
      if (!rt->persist().ok()) std::abort();
    }
  }
  (void)rt->persist();

  const auto dev = rt->device().stats();
  const auto log = rt->device().log_stats();

  model::ModelParams params;
  params.pax_persist_interval_ops = double(interval);
  const double mops = model::simulate_mops(model::SystemKind::kPaxCxl, 32,
                                           params);

  return Row{interval,
             double(rt->region().fault_count() - base_faults) / kOps,
             double(dev.first_touch_logs - base.first_touch_logs) / kOps,
             double(log.bytes_staged - base_log.bytes_staged) / kOps,
             peak_log,
             double(dev.pm_writeback_lines - base.pm_writeback_lines) / kOps,
             mops};
}

}  // namespace

int main() {
  std::printf(
      "=== Ablation 1: group-commit interval (persist every k ops) ===\n");
  std::printf(
      "workload: 40k random u64 upserts over 20k keys through libpax "
      "std::unordered_map (host_cpus %u)\n\n",
      std::thread::hardware_concurrency());
  std::printf("%10s %12s %12s %12s %12s %12s %14s\n", "interval",
              "faults/op", "undo rec/op", "log B/op", "peak log B",
              "PM wb/op", "model Mops@32");
  for (std::uint64_t k : {1ull, 8ull, 64ull, 256ull, 1024ull, 4096ull}) {
    Row r = run(k);
    std::printf("%10" PRIu64 " %12.3f %12.3f %12.1f %12.0f %12.3f %14.1f\n",
                r.interval, r.faults_per_op, r.undo_records_per_op,
                r.log_bytes_per_op, r.peak_log_bytes,
                r.pm_writeback_lines_per_op, r.modelled_mops32);
  }
  std::printf(
      "\nreading: larger batches amortize first-touch logging and faults\n"
      "(paper §3.2), at the cost of a larger undo log to roll back on "
      "crash.\n");
  return 0;
}
