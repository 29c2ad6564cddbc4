// Ablation — cost of systematic crash-point exploration.
//
// PR "crash exploration": CrashExplorer re-executes a deterministic
// workload once per crash point and audits one recovery per crash mode, so
// the total cost is (points x re-execution) + (points x modes x recovery +
// audit). This bench sweeps the sampling stride `every` over the libpax
// demo workload and reports wall time, crash points per second, and audited
// recoveries per second — the numbers that size how much exploration a CI
// budget buys (k=1 exhaustive vs sampled smoke).
//
// Results land in BENCH_crash_explore.json (cwd) for the driver.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <vector>

#include "pax/check/crashpoint.hpp"
#include "pax/libpax/runtime.hpp"

namespace {

using namespace pax;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kDeviceBytes = 2 << 20;
constexpr std::size_t kPages = 2;
constexpr int kEpochs = 3;

Status demo_workload(pmem::PmemDevice& dev, check::CrashOracle& oracle) {
  libpax::RuntimeOptions opts;
  opts.log_size = 256 << 10;
  auto rt = libpax::PaxRuntime::attach(&dev, opts);
  if (!rt.ok()) return rt.status();
  auto& r = *rt.value();
  PAX_RETURN_IF_ERROR(oracle.note_commit(r.committed_epoch()));
  const std::size_t pages = std::min(kPages, r.vpm_size() / kPageSize);
  for (int e = 0; e < kEpochs; ++e) {
    for (std::size_t p = 0; p < pages; ++p) {
      std::byte* page = r.vpm_base() + p * kPageSize;
      for (std::size_t l = 0; l < kLinesPerPage; l += 2) {
        page[l * kCacheLineSize] = static_cast<std::byte>(e + p + 1);
      }
    }
    auto committed = r.persist();
    if (!committed.ok()) return committed.status();
    PAX_RETURN_IF_ERROR(oracle.note_commit(committed.value()));
  }
  return Status::ok();
}

struct Row {
  std::uint64_t every;
  std::uint64_t total_events;
  std::uint64_t crash_points;
  std::uint64_t executions;
  std::uint64_t recoveries;
  double wall_ms;
  double points_per_sec;
  double recoveries_per_sec;
};

}  // namespace

int main() {
  std::vector<Row> rows;
  for (const std::uint64_t every : {32ull, 8ull, 1ull}) {
    check::CrashExplorerOptions options;
    options.every = every;
    check::CrashExplorer explorer(kDeviceBytes, demo_workload, options);
    const auto t0 = Clock::now();
    auto result = explorer.explore();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (!result.ok()) {
      std::fprintf(stderr, "explore failed: %s\n",
                   result.status().to_string().c_str());
      return 1;
    }
    const auto& r = result.value();
    if (!r.clean()) {
      std::fprintf(stderr, "unexpected findings:\n%s\n",
                   r.to_string().c_str());
      return 1;
    }
    Row row;
    row.every = every;
    row.total_events = r.total_events;
    row.crash_points = r.crash_points;
    row.executions = r.executions;
    row.recoveries = r.recoveries;
    row.wall_ms = ms;
    row.points_per_sec = r.crash_points / (ms / 1000.0);
    row.recoveries_per_sec = r.recoveries / (ms / 1000.0);
    rows.push_back(row);
    std::printf("every=%2" PRIu64 ": %5" PRIu64 " point(s), %5" PRIu64
                " recovery/ies in %8.1f ms (%.0f points/s)\n",
                every, row.crash_points, row.recoveries, ms,
                row.points_per_sec);
  }

  std::FILE* out = std::fopen("BENCH_crash_explore.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_crash_explore.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"crash_explore\",\n");
  std::fprintf(out, "  \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"pages\": %zu,\n", kPages);
  std::fprintf(out, "  \"epochs\": %d,\n", kEpochs);
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"every\": %" PRIu64 ", \"total_events\": %" PRIu64
                 ", \"crash_points\": %" PRIu64 ", \"executions\": %" PRIu64
                 ", \"recoveries\": %" PRIu64
                 ", \"wall_ms\": %.1f, \"points_per_sec\": %.1f, "
                 "\"recoveries_per_sec\": %.1f}%s\n",
                 r.every, r.total_events, r.crash_points, r.executions,
                 r.recoveries, r.wall_ms, r.points_per_sec,
                 r.recoveries_per_sec, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_crash_explore.json\n");
  return 0;
}
