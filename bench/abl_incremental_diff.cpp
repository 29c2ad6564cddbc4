// Ablation — line-granular incremental diffing.
//
// A page-granular diff memcmps all 64 lines of every dirty page against a
// fetched device shadow, so persist() pays for pages touched, not lines
// written. The runtime instead keeps a 64-bit digest per line of its
// last-snapshotted contents; the diff skips digest-clean lines without
// touching the shadow and fetches only the changed ones. This bench
// sweeps dirty-line density over a fixed dirty-page set and reports bytes
// memcmp'd per epoch (the quantity tracking is meant to crush) and persist
// wall time. The byte count is lines_diffed x 64, an upper bound: only a
// page whose digests were just rebuilt memcmps its lines, elsewhere a
// changed digest alone sends the line.
//
// Expectations (scripts/check_diff_perf.py):
//   * at <= 12.5% density (8/64 lines) bytes memcmp'd are >= 4x below the
//     full-page scan of dirty_pages x 4 KiB (it approaches 64/density);
//   * lines diffed per line written stays near 1.0 at ~10% density (the
//     perf-guard ratio).
//
// Results land in BENCH_incremental_diff.json (cwd) for the driver.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "pax/libpax/runtime.hpp"

namespace {

using namespace pax;
using namespace pax::libpax;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kPool = 64 << 20;
constexpr std::size_t kDirtyPages = 512;
constexpr int kEpochs = 4;  // measured; one extra seed epoch runs first

struct Row {
  std::size_t density;  // dirty lines per page, out of kLinesPerPage
  double persist_ms_mean;
  double bytes_memcmp_per_epoch;
  double lines_diffed_per_epoch;
  double lines_skipped_per_epoch;
  double lines_synced_per_epoch;
  bool correct;
};

Row run(std::size_t density) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);

  RuntimeOptions opts;
  opts.log_size = 8 << 20;
  opts.device.stripes = 16;
  opts.sync_batch_lines = 256;

  double persist_ms = 0;
  SyncStats base{}, after{};
  int last_epoch_byte = 0;
  {
    auto rt = PaxRuntime::attach(pm.get(), opts).value();

    // Seed epoch: touch the full dirty set once so every page's digests are
    // rebuilt before measurement (the steady state a long-running workload
    // lives in). Not counted.
    for (std::size_t p = 1; p <= kDirtyPages; ++p) {
      std::byte* page = rt->vpm_base() + p * kPageSize;
      for (std::size_t l = 0; l < density; ++l) {
        page[l * kCacheLineSize] = static_cast<std::byte>(0x2f);
      }
    }
    if (!rt->persist().ok()) std::abort();
    base = rt->sync_stats();

    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      last_epoch_byte = 0x30 + epoch;
      for (std::size_t p = 1; p <= kDirtyPages; ++p) {
        std::byte* page = rt->vpm_base() + p * kPageSize;
        for (std::size_t l = 0; l < density; ++l) {
          page[l * kCacheLineSize] = static_cast<std::byte>(last_epoch_byte);
        }
      }
      const auto t0 = Clock::now();
      if (!rt->persist().ok()) std::abort();
      persist_ms +=
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
    }
    after = rt->sync_stats();
  }  // teardown without persist: crash semantics

  // Crash and recover: the last persisted epoch must come back intact
  // although the diff skipped most lines.
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), opts).value();
  bool correct = true;
  for (std::size_t p = 1; p <= kDirtyPages && correct; ++p) {
    for (std::size_t l = 0; l < density; ++l) {
      if (rt->vpm_base()[p * kPageSize + l * kCacheLineSize] !=
          static_cast<std::byte>(last_epoch_byte)) {
        correct = false;
        break;
      }
    }
  }

  const double diffed =
      static_cast<double>(after.lines_diffed - base.lines_diffed) / kEpochs;
  const double skipped =
      static_cast<double>(after.lines_skipped - base.lines_skipped) / kEpochs;
  const double synced =
      static_cast<double>(after.lines_synced - base.lines_synced) / kEpochs;
  return Row{density, persist_ms / kEpochs, diffed * kCacheLineSize,
             diffed,  skipped,             synced,
             correct};
}

}  // namespace

int main() {
  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("=== Incremental diff: bytes memcmp'd vs dirty density ===\n");
  std::printf("host cpus: %u, dirty pages/epoch: %zu, lines/page: %zu\n",
              cpus, kDirtyPages, kLinesPerPage);
  std::printf("%8s %13s %15s %13s %11s %8s\n", "density", "persist[ms]",
              "memcmp B/ep", "diffed/ep", "synced/ep", "correct");

  std::vector<Row> rows;
  for (std::size_t density : {std::size_t{1}, std::size_t{4}, std::size_t{6},
                              std::size_t{8}, std::size_t{16},
                              std::size_t{64}}) {
    Row r = run(density);
    rows.push_back(r);
    std::printf("%5zu/64 %13.3f %15.0f %13.0f %11.0f %8s\n", r.density,
                r.persist_ms_mean, r.bytes_memcmp_per_epoch,
                r.lines_diffed_per_epoch, r.lines_synced_per_epoch,
                r.correct ? "yes" : "NO");
    std::fflush(stdout);
  }

  // The perf-guard ratio, read off at 6/64 ~= 9.4%, the ~10% point.
  const Row* guard = nullptr;
  for (const Row& r : rows) {
    if (r.density == 6) guard = &r;
  }
  const double diffed_per_written_10pct =
      (guard != nullptr && guard->lines_synced_per_epoch > 0)
          ? guard->lines_diffed_per_epoch / guard->lines_synced_per_epoch
          : 0.0;
  std::printf("\nfull-page scan: %zu bytes memcmp'd per epoch\n",
              kDirtyPages * kPageSize);
  std::printf("lines diffed per line written at ~10%% density: %.3f\n",
              diffed_per_written_10pct);

  std::FILE* out = std::fopen("BENCH_incremental_diff.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_incremental_diff.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"incremental_diff\",\n");
  std::fprintf(out, "  \"host_cpus\": %u,\n", cpus);
  std::fprintf(out, "  \"dirty_pages_per_epoch\": %zu,\n", kDirtyPages);
  std::fprintf(out, "  \"epochs\": %d,\n", kEpochs);
  std::fprintf(out, "  \"lines_diffed_per_line_written_at_10pct\": %.3f,\n",
               diffed_per_written_10pct);
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        out,
        "    {\"density_lines\": %zu, \"persist_ms_mean\": %.3f, "
        "\"bytes_memcmp_per_epoch\": %.0f, \"lines_diffed_per_epoch\": %.0f, "
        "\"lines_skipped_per_epoch\": %.0f, \"lines_synced_per_epoch\": %.0f, "
        "\"correct\": %s}%s\n",
        r.density, r.persist_ms_mean, r.bytes_memcmp_per_epoch,
        r.lines_diffed_per_epoch, r.lines_skipped_per_epoch,
        r.lines_synced_per_epoch, r.correct ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_incremental_diff.json\n");
  return 0;
}
