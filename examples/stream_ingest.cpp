// stream_ingest — non-blocking persist (§6 "Looking Forward") in action.
//
// An ingest loop appends telemetry records to a persistent structure and
// snapshots every batch. With the classic synchronous persist(), the loop
// stalls for the full commit (log flush + write-back + epoch cell) at every
// batch boundary. With persist_async(), the loop seals the batch and keeps
// ingesting while the commit completes in the background — the paper's
// "epochs overlap and threads never stall" goal.
//
// The example measures both modes on simulated PM and prints the stall the
// async mode removed from the ingest path — the time the loop is blocked in
// the persist call, and how often persist_async() had to wait for a free
// drain slot — then crash-checks that async snapshots are exactly as safe as
// synchronous ones. PM flushes and fences are reported as device-wide
// totals: the drain worker's flushes overlap the ingest loop, so a flush
// counted while a persist call happened to be running is not on its path.
#include <chrono>
#include <thread>
#include <cstdio>
#include <unordered_map>

#include "pax/libpax/persistent.hpp"

using namespace pax;
using libpax::PaxRuntime;
using libpax::PaxStlAllocator;
using libpax::Persistent;

namespace {

using Telemetry =
    std::unordered_map<std::uint64_t, std::uint64_t, std::hash<std::uint64_t>,
                       std::equal_to<std::uint64_t>,
                       PaxStlAllocator<std::pair<const std::uint64_t,
                                                 std::uint64_t>>>;

constexpr std::uint64_t kBatches = 50;
constexpr std::uint64_t kRecordsPerBatch = 400;

struct IngestCost {
  double blocked_ms = 0;  // on path: wall time the loop spent in persist calls
  std::uint64_t backpressure_waits = 0;  // on path: waits for a drain slot
  std::uint64_t line_flushes = 0;  // device-wide total, on or off the path
  std::uint64_t drains = 0;        // device-wide total, on or off the path
};

// Runs the ingest loop. Only the time blocked in the persist call (and the
// back-pressure waits inside it) is charged to the ingest path; background
// commits overlap the loop, which is the point.
template <typename PersistFn>
IngestCost run_ingest(PaxRuntime& rt, Persistent<Telemetry>& table,
                      PersistFn&& do_persist, std::uint64_t key_base) {
  using Clock = std::chrono::steady_clock;
  IngestCost cost;
  std::chrono::nanoseconds in_persist{0};
  const auto pm_before = rt.pm().stats();
  const auto pipe_before = rt.pipeline_stats();
  for (std::uint64_t b = 0; b < kBatches; ++b) {
    for (std::uint64_t r = 0; r < kRecordsPerBatch; ++r) {
      (*table)[key_base + b * kRecordsPerBatch + r] = b;
    }
    const auto t0 = Clock::now();
    std::forward<PersistFn>(do_persist)();
    in_persist += Clock::now() - t0;
    // Inter-batch application work (parsing, aggregation, networking…):
    // this is what an asynchronous commit overlaps with.
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  cost.blocked_ms =
      std::chrono::duration<double, std::milli>(in_persist).count();
  cost.backpressure_waits =
      rt.pipeline_stats().backpressure_waits - pipe_before.backpressure_waits;
  const auto pm_after = rt.pm().stats();
  cost.line_flushes = pm_after.line_flushes - pm_before.line_flushes;
  cost.drains = pm_after.drains - pm_before.drains;
  return cost;
}

}  // namespace

int main() {
  libpax::RuntimeOptions opts;
  opts.log_size = 16 << 20;
  // A device buffer comfortably larger than one batch's write set, so the
  // seal only buffers lines instead of evicting them to PM on the spot.
  opts.device.hbm.capacity_lines = 1 << 16;

  // --- Synchronous persist ------------------------------------------------
  auto pm_sync = pmem::PmemDevice::create_in_memory(64 << 20);
  IngestCost sync_cost;
  {
    auto rt = PaxRuntime::attach(pm_sync.get(), opts).value();
    auto table = Persistent<Telemetry>::open(*rt).value();
    sync_cost = run_ingest(*rt, table, [&] {
      if (!rt->persist().ok()) std::abort();
    }, 0);
  }

  // --- Non-blocking persist -------------------------------------------------
  // The drain worker commits sealed batches in the background, so the
  // ingest path pays only the snapshot.
  auto pm_async = pmem::PmemDevice::create_in_memory(64 << 20);
  IngestCost async_cost;
  std::uint64_t sealed_before_crash;
  {
    auto rt = PaxRuntime::attach(pm_async.get(), opts).value();
    auto table = Persistent<Telemetry>::open(*rt).value();
    Epoch last_sealed = 0;
    async_cost = run_ingest(*rt, table, [&] {
      auto sealed = rt->persist_async();
      if (!sealed.ok()) std::abort();
      last_sealed = sealed.value();
    }, 0);
    if (!rt->wait_persisted(last_sealed).ok()) std::abort();
    // One more sealed-but-never-waited batch, then crash.
    for (std::uint64_t r = 0; r < kRecordsPerBatch; ++r) {
      (*table)[1 << 30 | r] = 0xdead;
    }
    sealed_before_crash = rt->committed_epoch();
    if (!rt->persist_async().ok()) std::abort();  // sealed, NOT waited on
  }
  pm_async->crash(pmem::CrashConfig::drop_all());

  std::printf("ingest: %llu batches x %llu records\n",
              static_cast<unsigned long long>(kBatches),
              static_cast<unsigned long long>(kRecordsPerBatch));
  std::printf("on the ingest path (the loop blocked in the persist call):\n");
  std::printf("  sync persist():        %7.3f ms per batch\n",
              sync_cost.blocked_ms / kBatches);
  std::printf("  async persist_async(): %7.3f ms per batch, %llu "
              "back-pressure wait(s)\n",
              async_cost.blocked_ms / kBatches,
              static_cast<unsigned long long>(async_cost.backpressure_waits));
  std::printf("  -> %.0f%% of the blocked time moved off the ingest path\n",
              (1.0 - async_cost.blocked_ms / sync_cost.blocked_ms) * 100.0);
  std::printf("device-wide PM work per batch (totals, on or off the path):\n");
  std::printf("  sync:  %6.1f line flushes, %4.1f fences\n",
              double(sync_cost.line_flushes) / kBatches,
              double(sync_cost.drains) / kBatches);
  std::printf("  async: %6.1f line flushes, %4.1f fences\n",
              double(async_cost.line_flushes) / kBatches,
              double(async_cost.drains) / kBatches);

  // Crash-check: the pool recovers to the last COMPLETED epoch. The final
  // batch was sealed but its commit raced the crash against the drain
  // worker — both outcomes are legitimate, and each must be all-or-nothing:
  // either the batch is entirely absent (never committed) or entirely
  // present (the drain finished the commit first).
  auto rt = PaxRuntime::attach(pm_async.get(), opts).value();
  auto table = Persistent<Telemetry>::open(*rt).value();
  const std::uint64_t expect = kBatches * kRecordsPerBatch;
  std::uint64_t last_batch_visible = 0;
  for (const auto& [k, v] : *table) {
    last_batch_visible += (v == 0xdead) ? 1 : 0;
  }
  const Epoch epoch = rt->committed_epoch();
  std::printf("after crash: epoch %llu, %zu records; racing final batch "
              "%s\n",
              static_cast<unsigned long long>(epoch), table->size(),
              last_batch_visible == 0 ? "dropped whole" : "committed whole");
  const bool dropped = epoch == sealed_before_crash &&
                       last_batch_visible == 0 && table->size() == expect;
  const bool committed_by_drain =
      epoch == sealed_before_crash + 1 &&
      last_batch_visible == kRecordsPerBatch &&
      table->size() == expect + kRecordsPerBatch;
  const bool ok = dropped || committed_by_drain;
  std::printf("%s\n", ok ? "ASYNC SNAPSHOTS SAFE" : "TORN BATCH");
  return ok ? 0 : 1;
}
