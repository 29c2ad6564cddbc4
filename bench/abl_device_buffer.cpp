// Ablation 3 — device buffer capacity independence (§3.3, §1 "No Working
// Set Size Limits").
//
// The paper's argument against HTM-style buffering: a PAX epoch's write set
// is NOT limited by device buffer capacity, because any dirty line whose
// undo record is durable can be evicted to PM mid-epoch. This bench drives
// a fixed 16k-line per-epoch write set through PaxDevice configured with
// buffers from 256 lines (64× smaller than the write set) up to 32k lines,
// and shows (a) correctness holds everywhere and (b) what the squeeze costs:
// stall evictions (log-flush-blocked) and early write-backs.
#include <cinttypes>
#include <cstdio>

#include "pax/device/pax_device.hpp"
#include "pax/pmem/pool.hpp"

namespace {

using namespace pax;

constexpr std::uint64_t kWriteSetLines = 16384;

struct Row {
  std::size_t buffer_lines;
  std::uint64_t stall_evictions;
  std::uint64_t durable_evictions;
  std::uint64_t forced_log_flushes;
  std::uint64_t proactive_writebacks;
  bool correct;
};

LineData line_value(std::uint64_t i) {
  LineData d;
  for (std::size_t b = 0; b < kCacheLineSize; ++b) {
    d.bytes[b] = static_cast<std::byte>((i * 31 + b) & 0xff);
  }
  return d;
}

Row run(std::size_t buffer_lines) {
  auto pm = pmem::PmemDevice::create_in_memory(64 << 20);
  auto pool = pmem::PmemPool::create(pm.get(), 8 << 20).value();

  device::DeviceConfig cfg;
  cfg.hbm.capacity_lines = buffer_lines;
  cfg.hbm.ways = 8;
  device::PaxDevice dev(&pool, cfg);

  const std::uint64_t first = pool.data_offset() / kCacheLineSize;
  for (std::uint64_t i = 0; i < kWriteSetLines; ++i) {
    const LineIndex line{first + i};
    if (!dev.write_intent(line).is_ok()) std::abort();
    dev.writeback_line(line, line_value(i));
    if ((i & 0xff) == 0xff) dev.tick();  // background coordinator runs
  }
  if (!dev.persist(nullptr).ok()) std::abort();

  bool correct = true;
  for (std::uint64_t i = 0; i < kWriteSetLines; ++i) {
    if (!(pm->durable_line(LineIndex{first + i}) == line_value(i))) {
      correct = false;
      break;
    }
  }

  const auto& hbm = dev.hbm_stats();
  const auto stats = dev.stats();
  return Row{buffer_lines,          hbm.stall_evictions,
             hbm.durable_dirty_evictions, stats.forced_log_flushes,
             stats.proactive_writebacks,  correct};
}

}  // namespace

int main() {
  std::printf(
      "=== Ablation 3: per-epoch write set vs device buffer size ===\n");
  std::printf("write set: %" PRIu64 " lines (1 MiB) per epoch\n\n",
              kWriteSetLines);
  std::printf("%12s %10s %12s %14s %12s %12s %9s\n", "buffer[lines]",
              "vs WS", "stall evict", "durable evict", "forced flush",
              "proactive wb", "correct");
  for (std::size_t lines : {256u, 1024u, 4096u, 16384u, 32768u}) {
    Row r = run(lines);
    std::printf("%12zu %9.2fx %12" PRIu64 " %14" PRIu64 " %12" PRIu64
                " %12" PRIu64 " %9s\n",
                r.buffer_lines, double(r.buffer_lines) / kWriteSetLines,
                r.stall_evictions, r.durable_evictions, r.forced_log_flushes,
                r.proactive_writebacks, r.correct ? "yes" : "NO");
  }
  std::printf(
      "\nreading: even a buffer 64x smaller than the epoch write set commits\n"
      "correctly — evictions fall back on durable undo records (§3.3),\n"
      "unlike HTM-style designs whose capacity aborts the paper cites "
      "[8,19].\n");
  return 0;
}
