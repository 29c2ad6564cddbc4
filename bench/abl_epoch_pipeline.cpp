// Ablation — pipelined epochs + lock-free undo-append ring.
//
// A blocking persist() holds the mutator for the whole
// diff → sync_lines → undo-durable → commit chain. persist_async() copies
// the dirty set into an O(dirty-pages) snapshot, re-arms write protection,
// and returns; the background drain worker runs the same chain while the
// mutator builds epoch N+1. log_ring_slots > 0 additionally moves the
// hot-path undo appends off the log mutex onto a pre-framed MPMC ring.
//
// The workload dirties kDirtyPages pages at 12.5% line density (8 of 64
// lines per page — the regime where line tracking pays and the drain has
// real work), then spends think time before the next epoch, like any
// closed-loop client. Mutation stall = wall time the mutator spends inside
// persist calls: the snapshot plus any back-pressure for persist_async(),
// the full diff → sync → commit chain for persist(). The think time
// is a sleep rather than compute so that on this single-core container the
// drain worker actually gets the CPU during it — the same overlap real
// application work gives it on a multi-core host. The final wait for
// still-queued drains is reported separately (tail_wait_us): it is a
// shutdown barrier, not a per-epoch mutation stall. Four configs cross
// {blocking, pipelined} x {log mutex, log ring}.
//
// Results land in BENCH_epoch_pipeline.json (cwd) for the driver;
// scripts/check_epoch_pipeline.py asserts the acceptance thresholds.
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
constexpr std::size_t kDirtyPages = 512;        // 2 MiB footprint per epoch
constexpr std::size_t kLinesPerDirtyPage = 8;   // 12.5% density
constexpr int kEpochs = 8;
constexpr auto kThinkTime = std::chrono::milliseconds(15);

struct Row {
  bool pipelined;
  bool ring;
  double stall_us_per_persist;
  double tail_wait_us;
  double queue_occupancy_mean;  // 0 for blocking rows
  std::uint64_t queue_occupancy_max;
  std::uint64_t log_append_acquisitions;
  std::uint64_t log_ring_appends;
  bool correct;
};

const char* mode_name(const Row& r) {
  if (r.pipelined) return r.ring ? "pipelined+ring" : "pipelined+mutex";
  return r.ring ? "blocking+ring" : "blocking+mutex";
}

void dirty_epoch(std::byte* base, int epoch_byte) {
  for (std::size_t p = 1; p <= kDirtyPages; ++p) {
    std::byte* page = base + p * kPageSize;
    for (std::size_t l = 0; l < kLinesPerPage; l += kLinesPerPage /
                                                   kLinesPerDirtyPage) {
      std::memset(page + l * kCacheLineSize, epoch_byte, kCacheLineSize);
    }
  }
}

Row run(bool pipelined, bool ring) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);

  RuntimeOptions opts;
  opts.log_size = 8 << 20;
  opts.device.stripes = 16;
  opts.sync_batch_lines = 256;
  opts.log_ring_slots = ring ? 512 : 0;

  double stall_us = 0, tail_us = 0;
  int last_epoch_byte = 0;
  Epoch last_sealed = 0;
  PipelineStats ps{};
  std::uint64_t log_acq = 0, ring_appends = 0;
  {
    auto rt = PaxRuntime::attach(pm.get(), opts).value();
    if (!rt->persist().ok()) std::abort();  // settle heap-format writes

    // Warm-up epoch: seeds the per-line digests of the workload pages so
    // the measured epochs run the 8-line tracked diff, not a full rebuild.
    dirty_epoch(rt->vpm_base(), 0x2f);
    if (!rt->persist().ok()) std::abort();

    const auto dev_base = rt->device().stats();
    const PipelineStats ps_base = rt->pipeline_stats();

    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      last_epoch_byte = 0x40 + epoch;
      dirty_epoch(rt->vpm_base(), last_epoch_byte);
      const auto t0 = Clock::now();
      if (pipelined) {
        auto sealed = rt->persist_async();
        if (!sealed.ok()) std::abort();
        last_sealed = sealed.value();
      } else {
        auto committed = rt->persist();
        if (!committed.ok()) std::abort();
        last_sealed = committed.value();
      }
      stall_us += std::chrono::duration<double, std::micro>(Clock::now() -
                                                            t0)
                      .count();
      std::this_thread::sleep_for(kThinkTime);  // app work; drain overlaps
    }
    // Tail: the shutdown barrier for drains still in flight.
    const auto t0 = Clock::now();
    while (rt->committed_epoch() < last_sealed) {
      if (!rt->complete_persist().ok()) std::abort();
    }
    tail_us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();

    const auto ds = rt->device().stats();
    const PipelineStats p = rt->pipeline_stats();
    log_acq = ds.log_append_acquisitions - dev_base.log_append_acquisitions;
    ring_appends = ds.log_ring_appends - dev_base.log_ring_appends;
    ps.async_persists = p.async_persists - ps_base.async_persists;
    ps.queue_occupancy_sum =
        p.queue_occupancy_sum - ps_base.queue_occupancy_sum;
    ps.queue_occupancy_max = p.queue_occupancy_max;
  }  // teardown without a final persist: crash semantics

  // Crash and recover: the last committed epoch must come back intact.
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), opts).value();
  bool correct = true;
  for (std::size_t p = 1; p <= kDirtyPages && correct; p += 37) {
    for (std::size_t l = 0; l < kLinesPerPage;
         l += kLinesPerPage / kLinesPerDirtyPage) {
      if (rt->vpm_base()[p * kPageSize + l * kCacheLineSize] !=
          static_cast<std::byte>(last_epoch_byte)) {
        correct = false;
        break;
      }
    }
  }

  Row r;
  r.pipelined = pipelined;
  r.ring = ring;
  r.stall_us_per_persist = stall_us / kEpochs;
  r.tail_wait_us = tail_us;
  r.queue_occupancy_mean =
      ps.async_persists == 0
          ? 0.0
          : static_cast<double>(ps.queue_occupancy_sum) /
                static_cast<double>(ps.async_persists);
  r.queue_occupancy_max = ps.queue_occupancy_max;
  r.log_append_acquisitions = log_acq;
  r.log_ring_appends = ring_appends;
  r.correct = correct;
  return r;
}

}  // namespace

int main() {
  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("=== Pipelined epochs: mutation stall per persist ===\n");
  std::printf(
      "host cpus: %u, dirty pages/epoch: %zu at %zu/%zu lines (12.5%%)\n",
      cpus, kDirtyPages, kLinesPerDirtyPage, kLinesPerPage);
  std::printf("%16s %14s %10s %10s %9s %12s %12s %8s\n", "mode",
              "stall[us]", "tail[us]", "occ mean", "occ max", "log acq",
              "ring appends", "correct");

  std::vector<Row> rows;
  for (bool pipelined : {false, true}) {
    for (bool ring : {false, true}) {
      Row r = run(pipelined, ring);
      rows.push_back(r);
      std::printf("%16s %14.1f %10.1f %10.2f %9" PRIu64 " %12" PRIu64
                  " %12" PRIu64 " %8s\n",
                  mode_name(r), r.stall_us_per_persist, r.tail_wait_us,
                  r.queue_occupancy_mean, r.queue_occupancy_max,
                  r.log_append_acquisitions, r.log_ring_appends,
                  r.correct ? "yes" : "NO");
      std::fflush(stdout);
    }
  }

  // Headlines the acceptance criteria read off directly: the full PR
  // (pipelined + ring) against the pre-PR baseline (blocking + mutex).
  const Row& base = rows[0];      // blocking+mutex
  const Row& full = rows[3];      // pipelined+ring
  const double ratio = base.stall_us_per_persist > 0
                           ? full.stall_us_per_persist /
                                 base.stall_us_per_persist
                           : 1.0;
  std::printf("\nmutation stall: %.1f us (blocking+mutex) -> %.1f us "
              "(pipelined+ring), ratio %.3f\n",
              base.stall_us_per_persist, full.stall_us_per_persist, ratio);
  std::printf("log-mutex acquisitions on the ring path: %" PRIu64 "\n",
              full.log_append_acquisitions);

  std::FILE* out = std::fopen("BENCH_epoch_pipeline.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_epoch_pipeline.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"epoch_pipeline\",\n");
  std::fprintf(out, "  \"host_cpus\": %u,\n", cpus);
  std::fprintf(out, "  \"dirty_pages_per_epoch\": %zu,\n", kDirtyPages);
  std::fprintf(out, "  \"lines_per_dirty_page\": %zu,\n",
               kLinesPerDirtyPage);
  std::fprintf(out, "  \"epochs\": %d,\n", kEpochs);
  std::fprintf(out, "  \"stall_ratio_pipelined_ring_vs_blocking\": %.4f,\n",
               ratio);
  std::fprintf(out, "  \"ring_log_append_acquisitions\": %" PRIu64 ",\n",
               full.log_append_acquisitions);
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"pipelined\": %s, \"ring\": %s, "
                 "\"stall_us_per_persist\": %.2f, "
                 "\"tail_wait_us\": %.2f, "
                 "\"queue_occupancy_mean\": %.3f, "
                 "\"queue_occupancy_max\": %" PRIu64 ", "
                 "\"log_append_acquisitions\": %" PRIu64 ", "
                 "\"log_ring_appends\": %" PRIu64 ", \"correct\": %s}%s\n",
                 mode_name(r), r.pipelined ? "true" : "false",
                 r.ring ? "true" : "false", r.stall_us_per_persist,
                 r.tail_wait_us,
                 r.queue_occupancy_mean, r.queue_occupancy_max,
                 r.log_append_acquisitions, r.log_ring_appends,
                 r.correct ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_epoch_pipeline.json\n");
  return 0;
}
