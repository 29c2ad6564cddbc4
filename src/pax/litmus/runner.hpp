// Litmus harness: enumerated coherence schedules × enumerated crash points.
//
// run_shape() drives one litmus Shape through every interleaving of its
// per-core programs on a fresh pool + PaxDevice + CoherenceDomain each
// time, with serialized dispatch (one op at a time through the domain's
// thread-safe entry points — a sequentially consistent schedule by
// construction, which is also what makes the CrashExplorer determinism
// contract hold). Each interleaving is audited at two depths:
//
//   1. *Schedule pass*: execute once, record the PaxCheck stream
//      (optionally written as a .paxevt trace), and check the outcome —
//      registers read through the protocol, finals read after persist() +
//      a simulated power loss — against both the shape's forbidden-outcome
//      predicate and the exact SC simulation of that interleaving.
//   2. *Crash product*: hand the same interleaving to CrashExplorer as a
//      deterministic workload, enumerating every k-th device persistence
//      event as a crash point and auditing each recovery three ways
//      (recovery succeeds, PaxCheck silent, durable bytes equal a
//      committed image) plus a litmus invariant: once the final epoch
//      is the recovered epoch, the durable variables must equal the SC
//      finals of the interleaving.
//
// Findings carry the interleaving index, the schedule string, and — for
// crash-product findings — the crash event index and mode, so a seeded
// bug (coherence::DomainFaults) is localized to "shape, interleaving,
// crash point" coordinates.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pax/check/crashpoint.hpp"
#include "pax/coherence/domain.hpp"
#include "pax/litmus/litmus.hpp"

namespace pax::litmus {

/// Device geometry for harness pools: small, so the thousands of
/// executions behind one shape stay cheap.
inline constexpr std::size_t kLitmusDeviceBytes = 256 << 10;
inline constexpr std::size_t kLitmusLogBytes = 32 << 10;

/// Small (but still 3-level inclusive) cache geometry for harness cores:
/// litmus programs touch one or two lines, and domain construction cost is
/// what dominates an exhaustive run with Skylake-sized tables.
coherence::HostCacheConfig litmus_cache_config();

struct LitmusOptions {
  /// Crash-product stride: test every k-th device persistence event per
  /// interleaving. 0 disables the crash product (schedule pass only).
  std::uint64_t crash_every = 1;
  /// Cap on crash points per interleaving (0 = unlimited), sampled evenly.
  std::uint64_t max_crash_points = 0;
  /// Cap on interleavings per shape (0 = all), sampled evenly across the
  /// lexicographic enumeration — wide shapes (IRIW: 180) stay affordable.
  std::uint64_t max_interleavings = 0;
  /// Seed for the random/torn crash lotteries.
  std::uint64_t seed = 1;
  /// Crash modes; empty = explorer defaults (drop_all, random, torn).
  std::vector<check::CrashMode> modes;
  /// Seeded protocol bugs (mutation-testing the harness).
  coherence::DomainFaults faults;
  /// Directory for per-interleaving .paxevt traces ("" = don't record).
  std::string trace_dir;
  /// Stop a shape after this many findings (0 = collect every one).
  std::size_t max_findings = 32;
};

struct LitmusFinding {
  std::string shape;
  std::uint64_t interleaving = 0;  // index into enumerate_interleavings()
  std::string schedule;            // "P0 P1 P0 P1"
  /// Crash event index for crash-product findings; kNoCrashPoint for
  /// schedule-pass findings (no crash involved).
  std::uint64_t crash_after = check::kNoCrashPoint;
  std::string mode;  // crash mode name ("" for schedule-pass findings)
  /// "forbidden-outcome" | "sc-divergence" | "paxcheck" | "crash-audit".
  std::string kind;
  std::string detail;

  std::string to_string() const;
};

struct ShapeResult {
  std::string shape;
  std::uint64_t interleavings_total = 0;  // enumerated
  std::uint64_t interleavings = 0;        // actually executed
  std::uint64_t crash_points = 0;
  std::uint64_t executions = 0;
  std::uint64_t recoveries = 0;
  /// Sorted distinct canonical outcomes observed across interleavings.
  std::vector<std::string> outcomes;
  std::vector<LitmusFinding> findings;

  bool clean() const { return findings.empty(); }
  std::string to_string() const;
};

/// Pool offsets of the shape's variables (distinct lines, or packed into
/// one line for same_line shapes), relative to the pool's data extent.
std::vector<PoolOffset> var_offsets(const Shape&, const pmem::PmemPool&);

/// Executes one interleaving end to end on `device`: create pool, build
/// PaxDevice + CoherenceDomain (with `faults`), run the ops serialized in
/// `order`, persist through the domain pull, then simulate power loss and
/// read the finals back through a fresh core. Reports the baseline and the
/// committed epoch to `oracle` — i.e. a CrashExplorer-compatible workload.
/// `out` (optional) receives the observed Outcome.
Status execute_interleaving(pmem::PmemDevice& device,
                            check::CrashOracle& oracle, const Shape& shape,
                            std::span<const unsigned> order,
                            const coherence::DomainFaults& faults,
                            Outcome* out);

/// The full harness for one shape. An error Status means the harness
/// itself failed (workload error, nondeterminism); litmus/crash problems
/// are findings in the result.
Result<ShapeResult> run_shape(const Shape& shape,
                              const LitmusOptions& options = {});

}  // namespace pax::litmus
