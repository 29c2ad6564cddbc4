// Systematic crash-point exploration: enumerate every crash, audit every
// recovery.
//
// PaxCheck (checker.hpp) validates the ordering of ONE execution, and the
// recovery tests crash at hand-picked sites. CrashExplorer closes both
// gaps. It runs a deterministic workload once — the *reference pass* — to
// learn the device's total crash-countable event count, record the PaxCheck
// event stream, and note the event count at every committed epoch. Then,
// for every k-th device persistence event, it re-executes the workload with
// a consistent-cut capture armed at that event
// (PmemDevice::arm_crash_point), resolves the cut under each requested
// CrashConfig mode (drop_all / random / torn — one captured cut serves all
// three), and audits the resulting post-crash device three ways:
//
//   1. recovery must succeed (pool header readable, recover_pool ok);
//   2. the PaxCheck rules must stay silent over [recorded stream truncated
//      at the crash point] + crash + recovery — the full persist-order and
//      lock-discipline audit, localized to this crash point;
//   3. the recovered state must byte-exactly equal the durable image of
//      one of the two commits the crash point straddles, as the crashing
//      execution itself committed them — "pre-epoch or post-epoch, nothing
//      in between" — plus any caller-supplied invariant.
//
// Every failure is a CrashFinding naming the exact first bad crash index;
// with an artifact directory set, each finding also writes the audited
// event stream as a replayable .paxevt file (trace_file.hpp).
//
// Determinism contract: only the device event count must repeat — fixed
// seeds, no wall-clock, single-threaded persistence (libpax workloads:
// blocking persist() on the workload thread). The bytes stored may differ
// between executions (padding inside a persistent object, a heap address):
// an armed execution runs to completion after its cut and keeps its own
// images of the commits around it, so recovery is judged against the
// execution that crashed. The explorer verifies the total event count on
// every re-execution and fails loudly on drift.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pax/check/checker.hpp"
#include "pax/common/status.hpp"
#include "pax/common/types.hpp"
#include "pax/pmem/pmem_device.hpp"
#include "pax/pmem/pool.hpp"

namespace pax::check {

/// What a workload reports its commits to. Workloads call note_commit()
/// right after attach/recovery finishes (the baseline epoch) and right
/// after every persist; the oracle records each commit's epoch and device
/// crash-event count. The oracle of an armed execution also keeps the
/// durable data extent of the newest commit at or before its crash point
/// and of the commit after it — the only two images a correct recovery may
/// land on. note_commit only reads the device either way.
class CrashOracle {
 public:
  explicit CrashOracle(pmem::PmemDevice* device) : device_(device) {}

  /// Records "epoch `epoch` is durably committed". Epochs must arrive in
  /// increasing order, starting with the post-attach baseline.
  Status note_commit(Epoch epoch);

 private:
  friend class CrashExplorer;

  /// An armed execution's oracle: keeps the images of commit `pre` (the
  /// reference pass's commit_before the cut) and of the commit after it.
  CrashOracle(pmem::PmemDevice* device, std::size_t pre)
      : device_(device), pre_commit_(pre) {}

  /// Event count at the baseline commit. Crash points at or before it
  /// fall inside pool setup, where no committed image exists to compare
  /// against; enumeration starts after it.
  std::uint64_t baseline_events() const;

  /// Index of the newest commit at or before crash event `crash_after`.
  std::size_t commit_before(std::uint64_t crash_after) const;

  /// The pre-or-post-epoch invariant: the recovered pool must sit at the
  /// epoch of the newest commit at or before the armed crash point, or of
  /// the following one whose commit the crash landed inside, and match
  /// this execution's image of that commit byte-for-byte.
  Status check_recovered(pmem::PmemPool& pool) const;

  struct Commit {
    Epoch epoch = 0;
    std::uint64_t events_at = 0;
  };
  struct Image {
    Epoch epoch = 0;
    std::vector<std::byte> data;
  };

  pmem::PmemDevice* device_;
  std::optional<std::size_t> pre_commit_;  // armed executions only
  std::vector<Commit> commits_;
  std::optional<Image> pre_;   // commit pre_commit_
  std::optional<Image> post_;  // the commit after it
};

/// One named crash lottery.
struct CrashMode {
  std::string name;
  pmem::CrashConfig config;
};

struct CrashExplorerOptions {
  /// Test every k-th device persistence event (1 = exhaustive).
  std::uint64_t every = 1;
  /// Cap on enumerated crash points (0 = unlimited). When it bites, points
  /// are sampled evenly across the run instead of truncating the tail.
  std::uint64_t max_crash_points = 0;
  /// Seed for the random/torn lottery modes.
  std::uint64_t seed = 1;
  /// Crash modes to resolve each cut under; empty = all three defaults
  /// (drop_all, random 0.5, torn 0.5).
  std::vector<CrashMode> modes;
  /// Directory to write one .paxevt artifact per finding ("" = none).
  std::string artifact_dir;
  /// Stop after this many findings (0 = collect every one).
  std::size_t max_findings = 16;

  static std::vector<CrashMode> default_modes(std::uint64_t seed);
};

inline constexpr std::uint64_t kNoCrashPoint = ~0ull;

struct CrashFinding {
  std::uint64_t crash_after = 0;  // device event index of the cut
  std::string mode;               // CrashMode::name
  std::string detail;             // first failed check
  Report audit;                   // PaxCheck report for this crash point
  std::string artifact;           // .paxevt path, if written

  std::string to_string() const;
};

struct ExplorationResult {
  std::uint64_t total_events = 0;   // reference-run crash-countable events
  std::uint64_t crash_points = 0;   // points actually tested
  std::uint64_t executions = 0;     // workload runs (reference + armed)
  std::uint64_t recoveries = 0;     // recover_pool invocations audited
  std::uint64_t epochs = 0;         // commits noted by the reference pass
  std::vector<CrashFinding> findings;

  bool clean() const { return findings.empty(); }
  /// Smallest failing crash index (kNoCrashPoint when clean).
  std::uint64_t first_bad() const;
  std::string to_string() const;
};

class CrashExplorer {
 public:
  /// A deterministic workload: builds whatever stack it wants on `device`
  /// (raw pool + WAL protocol, UndoLogger, full PaxRuntime), mutates,
  /// persists, and reports the baseline and every committed epoch to the
  /// oracle. See the determinism contract in the file comment.
  using Workload = std::function<Status(pmem::PmemDevice&, CrashOracle&)>;

  /// Optional application-level invariant, evaluated on each recovered
  /// pool after the image check.
  using Invariant = std::function<Status(pmem::PmemPool&, Epoch recovered)>;

  CrashExplorer(std::size_t device_bytes, Workload workload,
                CrashExplorerOptions options = {});

  void set_invariant(Invariant invariant) {
    invariant_ = std::move(invariant);
  }

  /// Reference pass + full enumeration. An error Status means the harness
  /// itself failed (workload error on a clean device, nondeterministic
  /// event count); crash-consistency problems are findings in the result.
  Result<ExplorationResult> explore();

 private:
  Status audit_crash_point(std::uint64_t point,
                           std::span<const Event> reference,
                           std::size_t pre_commit, ExplorationResult& result);

  std::size_t device_bytes_;
  Workload workload_;
  Invariant invariant_;
  CrashExplorerOptions options_;
};

/// Longest prefix of a recorded stream containing exactly `n` device-
/// counted events (is_crash_countable), cut immediately after the n-th:
/// the event history a crash at device counter value n has observed.
/// Trailing non-countable markers (e.g. an epoch-commit note whose store
/// never executed) are excluded.
std::span<const Event> truncate_at_crash_event(std::span<const Event> events,
                                               std::uint64_t n);

}  // namespace pax::check
