// Latency and bandwidth presets for every medium and interconnect the paper's
// evaluation touches. Sources (the same ones the paper cites):
//   - Cache/DRAM: empirical numbers typical of the Cloudlab c6420
//     (2×16-core Skylake Xeon Gold 6142, 2.6 GHz) used in §5.
//   - Optane DC PMM: Yang et al., "An Empirical Guide to the Behavior and
//     Use of Scalable Persistent Memory", FAST'20 [33] — 305 ns random read,
//     ~14 GB/s/socket write BW, ~40 GB/s read BW.
//   - CXL device round-trip: the ~2× DRAM-access expectation publicised for
//     CXL.cache-attached devices (paper [6], §5 "expected CXL latency").
//   - Enzian: ThunderX-1 ↔ FPGA coherence round-trip measured by the Enzian
//     paper [5]; several hundred ns, ≈5× the CXL expectation, which is what
//     makes the paper's Enzian-PAX AMAT overhead ≈2× the CXL-PAX one.
//   - Page-fault trap: >1 µs per write-protection trap on modern x86 (§1).
#pragma once

#include "pax/simtime/clock.hpp"

namespace pax::simtime {

/// Latencies of the CPU cache hierarchy and memory media, in nanoseconds.
struct MemoryLatency {
  double l1_ns = 1.5;      // ~4 cycles @ 2.6 GHz
  double l2_ns = 5.4;      // ~14 cycles
  double llc_ns = 19.0;    // ~50 cycles
  double dram_ns = 81.0;   // loaded random-access DRAM latency
  double pm_read_ns = 305.0;   // Optane random 64 B read [33]
  double pm_write_ns = 94.0;   // store reaching the Optane WPQ (ADR domain)
  double sfence_drain_ns = 120.0;  // SFENCE + pending CLWB drain, amortized
  double clwb_ns = 25.0;           // issue cost of one CLWB instruction

  static MemoryLatency c6420() { return MemoryLatency{}; }
};

/// One-way + return interposition cost of the accelerator path, i.e. the
/// extra nanoseconds an LLC miss pays because the line is homed at the
/// device rather than at the host memory controller.
struct InterconnectLatency {
  double round_trip_ns = 0.0;

  /// No interposition: host memory controller serves the miss directly.
  static InterconnectLatency none() { return {0.0}; }

  /// Expected CXL.cache-attached device round trip (paper §5, [6]): the
  /// commonly projected "roughly one extra DRAM access" for a CXL hop.
  static InterconnectLatency cxl() { return {85.0}; }

  /// Enzian ThunderX-1 ↔ FPGA coherence round trip (paper [5]). The paper's
  /// §5 estimate is that the Enzian prototype's interposition overhead is
  /// about 2× the eventual CXL implementation's; ECI remote-line round
  /// trips are a couple hundred nanoseconds.
  static InterconnectLatency enzian() { return {180.0}; }

  /// Page-fault interposition: a write-protection trap, for the paging
  /// baselines (§1: "more than 1 µs per trap").
  static InterconnectLatency page_fault_trap() { return {1500.0}; }
};

/// Bandwidth constants used by the DES throughput model (§5.1).
struct BandwidthSpec {
  double pm_write_bps = 14e9;   // Optane per-socket write bandwidth [33]
  double pm_read_bps = 40e9;    // Optane per-socket read bandwidth [33]
  double dram_bps = 100e9;      // DRAM per-socket bandwidth
  double cxl_link_bps = 63e9;   // PCIe 5.0 x16 full-duplex per direction [6]
  double enzian_link_bps = 30e9;  // 24×10 Gb/s lanes ≈ 30 GB/s
  // CVU9P FPGA clock: msgs/s ceiling (§5.1).
  double device_pipeline_hz = 300e6;

  static BandwidthSpec paper() { return BandwidthSpec{}; }
};

}  // namespace pax::simtime
