// Shared pieces of the pax benchmark binary: run options, the result
// record every workload fills, exact quantiles, the in-memory span
// recorder of traced runs, per-layer counter snapshots read from the
// stack's public stats, and the device-direct replay of captured epochs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "pax/device/pax_device.hpp"
#include "pax/libpax/runtime.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool short_mode = false;  // tiny sizes, for the smoke test
  std::string trace_file;   // where a traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Correctness and counter-identity failures, each naming what broke.
  std::vector<std::string> errors;
  /// Counter disagreements that are known and recorded, not asserted.
  std::vector<std::string> known;
  /// Sample counts and sizes, for the reader of the result file.
  std::vector<std::pair<std::string, double>> info;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one failure; the first few are kept by name.
  void fail(std::string what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
};

/// Exact quantile (linear interpolation between closest ranks); sorts `v`.
double quantile(std::vector<double>& v, double q);

/// Median of `v` (by value: the caller's order is kept).
double median(std::vector<double> v);

inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// SplitMix64: the seeded generator every workload input is drawn from.
inline std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The samples of one measured phase, binned into one-second windows by
/// completion time. Statistics are taken per window, and the end-to-end
/// figures are those of the fast-decile window: nine windows in ten do no
/// better. A shared host only ever slows the program down, and its slow
/// phases last seconds, so the fast windows show the program's own cost;
/// the median window moves with the neighbours' load.
class Series {
 public:
  Series(Clock::time_point start, double seconds);
  /// Adds a sample completed at `done`; samples outside the phase are
  /// dropped.
  void add(Clock::time_point done, double value);
  std::size_t count() const;
  /// The fast-decile window's completion rate, per second (the 90th
  /// percentile over windows): completions after a window's first one over
  /// the time from its first to its last.
  double fast_rate() const;
  /// The fast-decile window's quantile `q` (the 10th percentile over
  /// windows of each window's quantile `q`).
  double fast_quantile(double q) const;
  /// The median window's quantile `q`, for tails, which the fast windows
  /// would hide.
  double median_window_quantile(double q) const;

 private:
  struct Window {
    std::vector<double> values;
    double first_s = 0, last_s = 0;  // completion times in the phase
  };
  Clock::time_point start_;
  double window_s_;
  std::vector<Window> windows_;

  std::vector<double> per_window_quantile(double q) const;
};

// --- Tracing ---------------------------------------------------------------

/// Spans of one traced run, kept in memory and written out at the end.
/// Single-threaded: every span is opened and closed on the benchmark thread.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  /// Opens a span; `key` is the epoch, wave or request id it belongs to.
  std::uint32_t begin(const char* name, std::uint64_t key,
                      std::uint32_t parent = kNoParent);
  void end(std::uint32_t span);
  double duration_ns(std::uint32_t span) const;

  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;  // duration minus the part children cover
  };
  std::map<std::string, Totals> totals() const;

  /// CSV, one span per line: index,name,key,parent,start_ns,end_ns
  /// (parent -1 for a root). Returns false when the file can't be written.
  bool write_csv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t key;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::int64_t now_ns() const;

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

// --- Per-layer counters ----------------------------------------------------

/// A flat snapshot of one runtime's public stats (sync, pipeline, vPM,
/// device, HBM, undo log, PM), keyed by counter name. Snapshots subtract
/// into deltas and add across shards.
using Counters = std::map<std::string, double>;

Counters read_counters(pax::libpax::PaxRuntime& rt);
Counters operator-(Counters a, const Counters& b);
Counters& operator+=(Counters& a, const Counters& b);

/// Times of a device-direct replay (replay_on_device below).
struct DeviceReplay {
  double peek_ns = 0, sync_ns = 0, persist_ns = 0;
  double lines = 0, epochs = 0;
  bool ok = true;
};

/// Every input the per-layer metrics are computed from. Fields of a layer
/// the workload does not run (kv and group commit on the libpax
/// workloads) stay zero, and so do their metrics.
struct LayerInputs {
  double get_floor_ns = 0;
  double store_get_ns = 0;  // mean KvStore::get span
  double store_put_ns = 0;  // mean KvStore::put span
  double wave_ns = 0;       // mean commit_wave span
  double waves = 0, wave_ops = 0, wave_shard_seals = 0;
  double acked_puts = 0;

  /// Counter deltas over the measured phase, summed over shards, and the
  /// epochs they cover (persist() calls, or shard seals).
  Counters delta;
  double epochs = 0;
  double user_bytes = 0;  // bytes the application asked to make durable

  double fault_ns = 0;  // store time attributed to write faults
  double faults = 0;    // the faults that time covers
  /// Runtime persist time and the pages/lines it scanned/synced.
  double persist_ns = 0, persist_pages = 0, persist_lines = 0;

  /// Device-direct replay of captured epochs, and the runtime persist time
  /// of those same epochs.
  DeviceReplay dev;
  double dev_runtime_ns = 0;

  /// Tail latencies: of durable acks (PUT or persist()) and of accesses
  /// (GET or an epoch's stores).
  double durable_p99_ns = 0, access_p99_ns = 0;

  double fail_frac = 0;
};

/// Appends every per-layer metric, always the same names in the same order.
void add_layer_metrics(RunResult& r, const LayerInputs& in);

/// Writes the spans to `path` and records each span name's mean self time
/// (`self_us.<name>`) in the result's info.
void finish_trace(RunResult& r, const Tracer& tracer, const std::string& path);

/// Checks `records == lines_synced` on one shard's delta; a mismatch fails
/// the run naming the counter, shard and workload.
void check_log_identity(RunResult& r, const std::string& workload,
                        std::size_t shard, const Counters& delta);

// --- Device-direct replay --------------------------------------------------

/// One committed epoch's final line values, as the device's commit hook
/// reports them.
struct CapturedEpoch {
  std::vector<std::pair<pax::LineIndex, pax::LineData>> lines;
};

/// Collects committed epochs from devices' commit hooks while enabled.
/// Must outlive the devices it is attached to.
class CommitCapture {
 public:
  CommitCapture() = default;
  CommitCapture(const CommitCapture&) = delete;
  CommitCapture& operator=(const CommitCapture&) = delete;

  void attach(pax::device::PaxDevice& dev);
  void set_enabled(bool on);
  std::vector<CapturedEpoch> take();

 private:
  std::mutex mu_;
  bool enabled_ = false;
  std::vector<CapturedEpoch> epochs_;
};

/// Replays each epoch's line set on a standalone PmemPool + PaxDevice of
/// the same geometry: peek_lines, sync_lines in `batch_lines` batches, then
/// persist(pull), each under its own span.
DeviceReplay replay_on_device(const std::vector<CapturedEpoch>& epochs,
                              std::size_t pool_bytes, std::size_t log_size,
                              const pax::device::DeviceConfig& config,
                              std::size_t batch_lines, Tracer& tracer);

/// The device config a runtime built from `options` runs with.
pax::device::DeviceConfig device_config_of(
    const pax::libpax::RuntimeOptions& options);

// --- Workloads -------------------------------------------------------------

RunResult run_persist(const RunOptions& opt);
RunResult run_kv(const RunOptions& opt);

}  // namespace perfbench
