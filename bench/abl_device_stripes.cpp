// Ablation — striped device data path: throughput scaling vs stripe count.
//
// The PaxDevice partitions its state into per-LineIndex stripes, each with
// its own lock, so data-path operations on different stripes proceed in
// parallel; persist() writes the epoch back on the calling thread. This
// bench sweeps stripes x threads, with each thread hammering a disjoint hot
// line range (write_intent + writeback_line + reads, the CXL.cache op mix),
// and
// reports aggregate ops/s plus persist() latency. stripes=1 reproduces the
// old single-mutex device, so the 1-stripe column is the baseline the
// speedup is measured against.
//
// Results land in BENCH_device_stripes.json (cwd) for the driver.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <vector>

#include "pax/device/pax_device.hpp"
#include "pax/pmem/pool.hpp"

namespace {

using namespace pax;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kLinesPerThread = 1024;  // hot set, fits the buffer
constexpr std::uint64_t kOpsPerThread = 24'000;
constexpr int kEpochs = 3;

struct Row {
  unsigned stripes;
  unsigned effective_stripes;
  unsigned threads;
  double ops_per_sec;
  double persist_ms_mean;
  bool correct;
};

LineData line_value(std::uint64_t tag) {
  LineData d;
  for (std::size_t b = 0; b < kCacheLineSize; ++b) {
    d.bytes[b] = static_cast<std::byte>((tag * 31 + b * 7) & 0xff);
  }
  return d;
}

Row run(unsigned stripes, unsigned threads) {
  auto pm = pmem::PmemDevice::create_in_memory(64 << 20);
  auto pool = pmem::PmemPool::create(pm.get(), 8 << 20).value();

  device::DeviceConfig cfg;
  cfg.hbm.capacity_lines = 16384;
  cfg.hbm.ways = 8;
  cfg.stripes = stripes;
  device::PaxDevice dev(&pool, cfg);

  const std::uint64_t first = pool.data_offset() / kCacheLineSize;
  auto thread_line = [&](unsigned t, std::uint64_t i) {
    return LineIndex{first + t * kLinesPerThread + (i % kLinesPerThread)};
  };

  double total_op_seconds = 0;
  double total_persist_ms = 0;
  std::uint64_t last_tag = 0;

  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    last_tag = 1'000'000 + static_cast<std::uint64_t>(epoch);
    const auto ops_begin = Clock::now();
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
          const LineIndex line = thread_line(t, i);
          if ((i & 3) == 3) {
            // 1-in-4 ops is a read of our own hot range.
            (void)dev.read_line(line);
            continue;
          }
          if (!dev.write_intent(line).is_ok()) std::abort();
          dev.writeback_line(line, line_value(last_tag + t * 131 + i));
          if ((i & 0x3ff) == 0x3ff) dev.tick();
        }
      });
    }
    for (auto& w : workers) w.join();
    total_op_seconds +=
        std::chrono::duration<double>(Clock::now() - ops_begin).count();

    const auto persist_begin = Clock::now();
    if (!dev.persist(nullptr).ok()) std::abort();
    total_persist_ms +=
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  persist_begin)
            .count();
  }

  // Each thread's last write to line slot s in the final epoch was at the
  // largest write-op index i with i % kLinesPerThread == s.
  bool correct = true;
  for (unsigned t = 0; t < threads && correct; ++t) {
    for (std::uint64_t s = 0; s < kLinesPerThread; ++s) {
      std::uint64_t last_i = 0;
      bool wrote = false;
      for (std::uint64_t i = s; i < kOpsPerThread; i += kLinesPerThread) {
        if ((i & 3) != 3) {
          last_i = i;
          wrote = true;
        }
      }
      if (!wrote) continue;
      const LineData want = line_value(last_tag + t * 131 + last_i);
      if (!(pm->durable_line(thread_line(t, s)) == want)) {
        correct = false;
        break;
      }
    }
  }

  const double total_ops =
      static_cast<double>(kOpsPerThread) * threads * kEpochs;
  return Row{stripes,
             dev.stripe_count(),
             threads,
             total_ops / total_op_seconds,
             total_persist_ms / kEpochs,
             correct};
}

}  // namespace

int main() {
  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf(
      "=== Striped device data path: ops/s vs stripes x threads ===\n");
  std::printf("host cpus: %u\n", cpus);
  if (cpus <= 1) {
    std::printf(
        "NOTE: single-CPU host — threads are time-sliced, so stripe\n"
        "scaling cannot show; run on a multi-core machine for the real\n"
        "sweep. Numbers below still validate correctness under the\n"
        "concurrent schedule.\n");
  }
  std::printf("%8s %6s %8s %14s %14s %9s\n", "stripes", "(eff)", "threads",
              "ops/s", "persist[ms]", "correct");

  std::vector<Row> rows;
  for (unsigned stripes : {1u, 2u, 4u, 8u, 16u, 32u}) {
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      Row r = run(stripes, threads);
      rows.push_back(r);
      std::printf("%8u %6u %8u %14.0f %14.3f %9s\n", r.stripes,
                  r.effective_stripes, r.threads, r.ops_per_sec,
                  r.persist_ms_mean, r.correct ? "yes" : "NO");
      std::fflush(stdout);
    }
  }

  // Headline: contended multi-thread traffic vs the single-lock device.
  double base_4t = 0, striped_4t = 0;
  for (const Row& r : rows) {
    if (r.threads == 4 && r.stripes == 1) base_4t = r.ops_per_sec;
    if (r.threads == 4 && r.stripes == 16) striped_4t = r.ops_per_sec;
  }
  if (base_4t > 0) {
    std::printf("\n4-thread speedup, 16 stripes vs 1 stripe: %.2fx\n",
                striped_4t / base_4t);
  }

  std::FILE* out = std::fopen("BENCH_device_stripes.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_device_stripes.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"device_stripes\",\n");
  std::fprintf(out, "  \"host_cpus\": %u,\n", cpus);
  std::fprintf(out, "  \"ops_per_thread\": %" PRIu64
                    ",\n  \"lines_per_thread\": %" PRIu64
                    ",\n  \"epochs\": %d,\n",
              kOpsPerThread, kLinesPerThread, kEpochs);
  std::fprintf(out, "  \"speedup_4t_16s_vs_1s\": %.3f,\n",
               base_4t > 0 ? striped_4t / base_4t : 0.0);
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"stripes\": %u, \"effective_stripes\": %u, "
                 "\"threads\": %u, \"ops_per_sec\": %.0f, "
                 "\"persist_ms_mean\": %.3f, \"correct\": %s}%s\n",
                 r.stripes, r.effective_stripes, r.threads, r.ops_per_sec,
                 r.persist_ms_mean, r.correct ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_device_stripes.json\n");
  return 0;
}
