// Discrete-event throughput model for Figure 2b (and the throughput side of
// the ablations).
//
// The paper's Figure 2b runs a write-only workload on a concurrent hash
// table across 1–32 threads on a dual-socket Skylake with Optane DIMMs.
// This container has one core, so the experiment is reproduced as a
// discrete-event simulation in virtual time: each simulated thread executes
// a closed loop of insert operations whose cost is assembled from the same
// component latencies the AMAT model uses, plus bandwidth-limited shared
// resources that produce the contention knees.
//
// Cost model per operation (parameters in ModelParams, defaults from the
// paper's sources [33], [6], [5]):
//
//   DRAM       cpu + misses·t_dram; write-back bytes against DRAM BW.
//   PM Direct  cpu + misses·t_pm; write-back bytes against PM write BW at
//              Optane's 256 B internal granularity (random CPU evictions
//              cannot coalesce — the 4× internal write amplification of
//              [33] §4.1 is what caps this curve).
//   PMDK       PM Direct + per-op synchronous undo logging: n_snapshots ×
//              (log write + SFENCE drain) + data-flush fence + commit
//              record fence (§2's "multiple stalls per put()"), log bytes
//              against PM write BW (sequential, no internal amplification).
//   PAX        cpu + misses·(t_pm + device round trip), a fraction of
//              misses served from device HBM instead; undo-log bytes are
//              asynchronous (consume BW, never stall the thread; §3.2);
//              the device's write-back coordinator coalesces write-backs
//              into Optane-friendly 256 B units (§3.3 gives it that
//              freedom), sidestepping the internal write amplification.
//              Every LLC miss is one coherence message through the device
//              pipeline (§5.1 "Accelerator Bottlenecks": 300 MHz on the
//              Enzian FPGA — binding for PAX-Enzian, assumed ASIC-class
//              for PAX-CXL).
#pragma once

#include <cstdint>
#include <vector>

#include "pax/simtime/bandwidth.hpp"
#include "pax/simtime/latency.hpp"

namespace pax::model {

enum class SystemKind {
  kDram,
  kPmDirect,
  kPmdk,
  kPaxCxl,
  kPaxEnzian,
  kPageWal,  // page-fault tracking baseline (trap cost per page touch)
  kHybrid,   // §5.1's proposed combination: pages map read-only over
             // host-attached PM (no per-miss interposition), the first
             // write fault per page per epoch remaps it through vPM, and
             // PAX then logs the page's changes at line granularity
             // asynchronously
};

const char* system_name(SystemKind kind);

struct ModelParams {
  simtime::MemoryLatency lat = simtime::MemoryLatency::c6420();
  simtime::BandwidthSpec bw = simtime::BandwidthSpec::paper();

  // Workload / structure characteristics (measure with the cache sim or
  // override).
  double cpu_ns_per_op = 150.0;    // TBB-style concurrent insert: hashing,
                                   // per-bucket locking, node allocation
  double misses_per_op = 0.7;      // LLC misses per insert
  double dirty_lines_per_op = 0.7; // lines eventually written back

  // PMDK transaction shape (matches baselines/pmdk measured counts).
  unsigned pmdk_snapshots_per_op = 3;
  double pmdk_log_bytes_per_op = 288;  // 3 × 96 B records
  unsigned pmdk_extra_fences = 2;      // data-flush + commit-record fences

  // PAX device behaviour.
  double pax_interposition_override_ns = -1;  // >=0: replace the kind's
                                              // round-trip (latency sweeps)
  double pax_hbm_hit_fraction = 0.3;   // device-cache hits among LLC misses
  double pax_hbm_hit_ns = 100.0;       // HBM access at the device
  double pax_log_bytes_per_op = 96;    // one line undo record (async)
  double pax_persist_interval_ops = 1024;  // group-commit batch (§3.2)
  double pax_persist_cost_ns = 20000;      // pull+write-back+commit per batch
  /// §6 non-blocking persist: the boundary op pays only the seal; the
  /// commit overlaps with subsequent ops (consuming PM bandwidth async).
  bool pax_async_persist = false;
  double pax_seal_cost_ns = 2000;          // seal: pulls + bank switch
  /// Pipelined epochs (takes precedence over pax_async_persist): the
  /// boundary op pays only the O(dirty-pages) dirty-set swap; a single
  /// background drain worker serializes the full persists, and the boundary
  /// op stalls only when the bounded drain queue is full (back-pressure).
  /// Mirrors persist_async() in the host runtime, whose queue holds
  /// PaxRuntime::kPipelineDepth (2) snapshots.
  bool pax_pipelined_epochs = false;
  unsigned pax_pipeline_depth = 1;    // snapshots queued or in flight
  double pax_swap_cost_ns = 400;      // dirty-set swap + page re-protection

  // Page-WAL baseline.
  double pagewal_trap_ns = 1500.0;       // write-protection fault (§1)
  double pagewal_page_touch_per_op = 0.05;  // first-touches per op (locality)
  double pagewal_log_bytes_per_page = 4096.0 + 32;

  // Optane internal write granularity [33]: random 64 B writes occupy a
  // full 256 B internal line of write bandwidth.
  double optane_internal_write_bytes = 256.0;

  std::uint64_t ops_per_thread = 200000;
};

struct ThroughputPoint {
  unsigned threads;
  double mops;  // million operations per second (virtual time)
};

/// Per-op latency distribution of one simulated thread — the snapshot
/// boundary shows up as the tail (see bench/abl_persist_tail).
struct LatencyProfile {
  double mean_ns = 0;
  double p50_ns = 0;
  double p90_ns = 0;
  double p99_ns = 0;
  double p999_ns = 0;
  double max_ns = 0;
};

/// Runs the closed-loop DES for `kind` at each thread count.
std::vector<ThroughputPoint> simulate_throughput(
    SystemKind kind, const std::vector<unsigned>& thread_counts,
    const ModelParams& params);

/// Single-point variant. If `profile` is non-null, fills it with thread 0's
/// per-op latency distribution.
double simulate_mops(SystemKind kind, unsigned threads,
                     const ModelParams& params,
                     LatencyProfile* profile = nullptr);

}  // namespace pax::model
