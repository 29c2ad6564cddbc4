// Ablation — PaxCheck runtime overhead.
//
// PaxCheck is opt-in instrumentation: every PM store/flush/drain, undo-log
// append/flush, write-back, lock acquisition, and sync push emits one event
// into a per-thread ring, and the engine replays them at ordering points.
// That must stay cheap enough to leave on in every stress test, so this
// bench runs the abl_host_sync dirty-page persist workload twice per
// configuration — checker detached vs attached — and reports the wall-time
// ratio. Acceptance: overhead_ratio <= 2.0 on the tracked configuration
// (the default-shaped line-tracked, batched sync path), and the checker
// stays silent throughout.
//
// Results land in BENCH_paxcheck.json (cwd) for the driver.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "pax/check/checker.hpp"
#include "pax/libpax/runtime.hpp"

namespace {

using namespace pax;
using namespace pax::libpax;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kPool = 64 << 20;
constexpr std::size_t kDirtyPages = 512;  // 2 MiB rewritten per epoch
constexpr int kEpochs = 4;

struct Row {
  const char* config;
  std::size_t batch;
  double persist_ms_off;
  double persist_ms_on;
  double overhead_ratio;
  std::uint64_t events;
  std::uint64_t violations;
};

// One timed pass of the dirty-page persist workload; `checker` may be null
// (the baseline). Returns mean persist wall ms per epoch.
double run_pass(std::size_t batch, check::Checker* checker) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  if (checker != nullptr) pm->set_checker(checker);

  RuntimeOptions opts;
  opts.log_size = 8 << 20;
  opts.device.stripes = 16;
  opts.sync_batch_lines = batch;

  double persist_ms = 0;
  {
    auto rt = PaxRuntime::attach(pm.get(), opts).value();
    if (!rt->persist().ok()) std::abort();  // settle heap-format writes
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      for (std::size_t p = 1; p <= kDirtyPages; ++p) {
        std::memset(rt->vpm_base() + p * kPageSize, 0x30 + epoch, kPageSize);
      }
      const auto t0 = Clock::now();
      if (!rt->persist().ok()) std::abort();
      persist_ms +=
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
    }
  }
  if (checker != nullptr) pm->set_checker(nullptr);
  return persist_ms / kEpochs;
}

constexpr int kRepeats = 3;

Row run(const char* config, std::size_t batch) {
  // Alternate off/on passes and keep the per-mode minimum: scheduler noise
  // on a shared host only ever inflates a pass, so min-of-N is the honest
  // estimate of each mode's cost.
  double off_ms = 0, on_ms = 0;
  std::uint64_t events = 0, violations = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const double off = run_pass(batch, nullptr);
    check::Checker checker;
    const double on = run_pass(batch, &checker);
    auto report = checker.report();
    events = report.diagnostics.events;
    violations += report.violations.size();
    off_ms = rep == 0 ? off : std::min(off_ms, off);
    on_ms = rep == 0 ? on : std::min(on_ms, on);
  }
  return Row{config,
             batch,
             off_ms,
             on_ms,
             off_ms > 0 ? on_ms / off_ms : 0.0,
             events,
             violations};
}

}  // namespace

int main() {
  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("=== PaxCheck overhead: persist() with checker off vs on ===\n");
  std::printf("host cpus: %u, dirty pages/epoch: %zu (%zu lines)\n", cpus,
              kDirtyPages, kDirtyPages * kLinesPerPage);
  std::printf("%10s %6s %12s %11s %9s %10s %6s\n", "config", "batch",
              "off[ms]", "on[ms]", "ratio", "events", "viol");

  std::vector<Row> rows;
  rows.push_back(run("tracked", 256));
  for (const Row& r : rows) {
    std::printf("%10s %6zu %12.3f %11.3f %8.2fx %10" PRIu64 " %6" PRIu64 "\n",
                r.config, r.batch, r.persist_ms_off,
                r.persist_ms_on, r.overhead_ratio, r.events, r.violations);
    std::fflush(stdout);
  }

  // The acceptance headline: overhead on the tracked configuration (the
  // default-shaped production path).
  double headline = 0;
  std::uint64_t total_violations = 0;
  for (const Row& r : rows) {
    if (std::strcmp(r.config, "tracked") == 0) headline = r.overhead_ratio;
    total_violations += r.violations;
  }
  std::printf("\nchecker-on overhead (tracked config): %.2fx, violations: %"
              PRIu64 "\n",
              headline, total_violations);

  std::FILE* out = std::fopen("BENCH_paxcheck.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_paxcheck.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"paxcheck\",\n");
  std::fprintf(out, "  \"host_cpus\": %u,\n", cpus);
  std::fprintf(out, "  \"dirty_pages_per_epoch\": %zu,\n", kDirtyPages);
  std::fprintf(out, "  \"epochs\": %d,\n", kEpochs);
  std::fprintf(out, "  \"overhead_ratio_tracked\": %.3f,\n", headline);
  std::fprintf(out, "  \"violations\": %" PRIu64 ",\n", total_violations);
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"config\": \"%s\", "
                 "\"sync_batch_lines\": %zu, \"persist_ms_off\": %.3f, "
                 "\"persist_ms_on\": %.3f, \"overhead_ratio\": %.3f, "
                 "\"events\": %" PRIu64 ", \"violations\": %" PRIu64 "}%s\n",
                 r.config, r.batch, r.persist_ms_off, r.persist_ms_on,
                 r.overhead_ratio, r.events, r.violations,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_paxcheck.json\n");
  return 0;
}
