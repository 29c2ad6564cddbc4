// Multi-core coherence domain: several host caches sharing one PAX device.
//
// The single-core HostCacheSim models the paper's Figure 2a measurement
// setup; real deployments (§3.5, §6 "highly concurrent workloads") have many
// cores whose caches keep each other coherent *through the home agent* —
// which for vPM addresses is the PAX device. The domain wires the cores
// together MESI-style:
//
//   * before a core takes exclusive ownership (store), every peer holding
//     the line is snooped with SnpInv — a Modified peer writes its data
//     back to the device first, so no update can be lost;
//   * before a core fills a load miss from the device, a Modified peer is
//     downgraded with SnpData and its data forwarded through the device;
//   * persist() pulls from all cores (any of them may hold the newest copy)
//     and downgrades everywhere, preserving the §3.3 re-announcement
//     invariant across every core.
//
// Important PAX property this preserves: *cross-core* ownership transfers
// of a line within one epoch do not create new undo records — the first
// RdOwn of the epoch logged the epoch-boundary value, and every subsequent
// transfer routes current data through the device, never touching the log
// (write_intent is per-epoch idempotent).
//
// ── Concurrent dispatch ────────────────────────────────────────────────────
//
// The per-core load()/store() entry points below are thread-safe: one
// application thread per core may drive its core concurrently (the striped
// device then runs their misses in parallel). Internals:
//
//   * a small array of *line-stripe* mutexes serializes conflicting traffic
//     on the same line across cores (the fabric's per-address ordering
//     point);
//   * one mutex per core guards that core's simulator (HostCacheSim itself
//     is single-threaded by design);
//   * the domain *pre-snoops* the peers — under their own locks, one at a
//     time — before invoking the core op with a thread-local flag set that
//     suppresses the in-op peer snooper. Pre-snooping unconditionally is
//     MESI-equivalent to the lazy in-op snoop: whenever the in-op snoop
//     would have been skipped (core already owns the line M/E, or the load
//     hits), the peers can hold nothing that the snoop would touch, so the
//     pre-snoop is a no-op. The suppression is what keeps two cores from
//     locking each other's mutexes in opposite orders (at most one core
//     lock is ever held per thread).
//
// LOCK ORDER: domain gate → line-stripe mutex → (one) core mutex → device
// locks.
//
// The domain gate is what makes persist() safe against live dispatch:
// every dispatch op holds it shared for its whole duration (acquired
// before any other lock), and persist() takes it exclusive before
// entering the device — the stop-the-world epoch boundary the paper's
// runtime imposes (§3.5). The exclusive gate quiesces all dispatch, so
// the persist-time pull touches the core simulators without core mutexes
// (the device invokes the pull from the one thread running persist());
// without the gate, a dispatch thread blocked on the device's epoch gate
// while holding its core mutex would deadlock against the commit thread
// pulling under the exclusive epoch lock. The raw pull_fn() keeps the
// core-locking behavior for direct single-threaded core() use.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "pax/coherence/host_cache.hpp"

namespace pax::coherence {

/// Seeded coherence-protocol faults for the litmus harness (pax::litmus).
/// Each knob deletes one edge the MESI wiring below depends on; the litmus
/// shapes must then observe a forbidden outcome, an SC divergence, or a
/// durable-state divergence at some crash point — mutation-testing the
/// harness itself. All off by default; never enable outside tests.
struct DomainFaults {
  /// A snoop that hits a Modified peer drops the dirty data instead of
  /// routing it back through the device (lost update / stale fill).
  bool suppress_snoop_writeback = false;
  /// pull_fn() reports "host holds nothing" without snooping any core, so
  /// persist() commits the device's stale copies of host-Modified lines.
  bool skip_persist_pull = false;
  /// Dispatch bypasses the per-address ordering point entirely: no
  /// line-stripe mutex and no peer snoop before the access (the in-op
  /// snooper stays suppressed exactly as on the normal dispatch path).
  bool skip_line_serialization = false;

  bool any() const {
    return suppress_snoop_writeback || skip_persist_pull ||
           skip_line_serialization;
  }
};

class CoherenceDomain {
 public:
  CoherenceDomain(device::PaxDevice* device,
                  const HostCacheConfig& core_config, unsigned core_count);

  unsigned core_count() const { return static_cast<unsigned>(cores_.size()); }

  /// Direct core access — single-threaded use only (tests, measurement
  /// loops owning the whole domain). For multi-threaded traffic use the
  /// dispatch entry points below.
  HostCacheSim& core(unsigned i) { return *cores_.at(i); }

  // --- Thread-safe dispatch (one thread per core) -------------------------

  /// load()/store() through core `core_id`'s hierarchy. Safe to call
  /// concurrently from different threads (also for the same core). Accesses
  /// spanning several lines are line-atomic, not op-atomic — exactly the
  /// hardware guarantee.
  void load(unsigned core_id, PoolOffset offset, std::span<std::byte> out);
  Status store(unsigned core_id, PoolOffset offset,
               std::span<const std::byte> data);

  std::uint64_t load_u64(unsigned core_id, PoolOffset offset);
  Status store_u64(unsigned core_id, PoolOffset offset, std::uint64_t value);

  // --- Epoch plumbing -----------------------------------------------------

  /// Commit an epoch against live dispatch: takes the domain gate
  /// exclusive (quiescing every dispatch entry point), then runs
  /// `device->persist()` with a pull covering every core. This is the safe
  /// way to persist a domain driven through the dispatch entry points —
  /// see the LOCK ORDER note in the header comment.
  Result<Epoch> persist(device::PaxDevice* device);

  /// persist() pull covering every core: returns the Modified copy if any
  /// core holds one (downgrading it), else downgrades any Shared holders
  /// and reports nothing (the device's own copy is current). Takes the core
  /// mutexes — for direct single-threaded core() use only; domains driven
  /// through dispatch must use persist() above instead.
  device::PaxDevice::PullFn pull_fn();

  /// Crash: every core's volatile state vanishes.
  void drop_all_without_writeback();

  /// Seeded-bug knobs (litmus harness only). Set before driving traffic;
  /// not synchronized against in-flight dispatch.
  void set_faults(const DomainFaults& faults) { faults_ = faults; }
  const DomainFaults& faults() const { return faults_; }

 private:
  // Serializes same-line traffic across cores. Sized like a snoop filter
  // bank count — contention here means *actual* same-line contention.
  static constexpr std::size_t kLineLockStripes = 64;

  std::mutex& line_mutex(LineIndex line) {
    return line_mu_[line.value % kLineLockStripes];
  }

  // Snoops every peer of `core_id` for `line` under the peers' own locks
  // (one at a time). `exclusive` selects SnpInv vs SnpData semantics,
  // mirroring the wired in-op snooper exactly.
  void presnoop_peers(unsigned core_id, LineIndex line, bool exclusive);

  // One peer snoop — the single protocol step both the wired in-op snooper
  // and presnoop_peers() share (and where DomainFaults bite). Caller holds
  // the peer's core mutex (or owns the whole domain single-threaded).
  void snoop_peer(unsigned peer, LineIndex line, bool exclusive);

  void load_one_line(unsigned core_id, PoolOffset offset,
                     std::span<std::byte> out);
  Status store_one_line(unsigned core_id, PoolOffset offset,
                        std::span<const std::byte> data);

  // The persist-time pull under the exclusive gate: no core mutexes — the
  // gate has quiesced dispatch, and the device pulls from the one thread
  // running persist().
  std::optional<LineData> pull_newest_quiesced(LineIndex line);

  std::vector<std::unique_ptr<HostCacheSim>> cores_;
  std::vector<std::unique_ptr<std::mutex>> core_mu_;
  std::array<std::mutex, kLineLockStripes> line_mu_;
  std::shared_mutex gate_;
  DomainFaults faults_;
};

}  // namespace pax::coherence
