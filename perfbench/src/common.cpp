#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "bench.hpp"

namespace perfbench {

using namespace pax;

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

// --- Series ----------------------------------------------------------------

Series::Series(Clock::time_point start, double seconds)
    : start_(start),
      windows_(std::max<std::size_t>(1, static_cast<std::size_t>(
                                            std::lround(seconds)))) {
  window_s_ = seconds / static_cast<double>(windows_.size());
}

void Series::add(Clock::time_point done, double value) {
  const double t = ns_between(start_, done) / 1e9;
  if (t < 0) return;
  const auto i = static_cast<std::size_t>(t / window_s_);
  if (i >= windows_.size()) return;
  Window& w = windows_[i];
  if (w.values.empty()) w.first_s = t;
  w.last_s = t;
  w.values.push_back(value);
}

std::size_t Series::count() const {
  std::size_t n = 0;
  for (const Window& w : windows_) n += w.values.size();
  return n;
}

double Series::fast_rate() const {
  std::vector<double> per_window;
  for (const Window& w : windows_) {
    if (w.values.size() < 2) continue;
    per_window.push_back(static_cast<double>(w.values.size() - 1) /
                         (w.last_s - w.first_s));
  }
  return perfbench::quantile(per_window, 0.9);
}

std::vector<double> Series::per_window_quantile(double q) const {
  std::vector<double> per_window;
  for (const Window& w : windows_) {
    std::vector<double> v = w.values;
    if (!v.empty()) per_window.push_back(perfbench::quantile(v, q));
  }
  return per_window;
}

double Series::fast_quantile(double q) const {
  std::vector<double> per_window = per_window_quantile(q);
  return perfbench::quantile(per_window, 0.1);
}

double Series::median_window_quantile(double q) const {
  return median(per_window_quantile(q));
}

// --- Tracer ----------------------------------------------------------------

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0_)
      .count();
}

std::uint32_t Tracer::begin(const char* name, std::uint64_t key,
                            std::uint32_t parent) {
  const std::int64_t t = now_ns();
  spans_.push_back({name, key, parent, t, t});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::end(std::uint32_t span) { spans_[span].end_ns = now_ns(); }

double Tracer::duration_ns(std::uint32_t span) const {
  return static_cast<double>(spans_[span].end_ns - spans_[span].start_ns);
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  // Children of each span, in start order (spans are appended as opened).
  std::vector<std::vector<std::uint32_t>> children(spans_.size());
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoParent) children[spans_[i].parent].push_back(i);
  }
  std::map<std::string, Totals> out;
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const std::uint32_t c : children[i]) {
      const std::int64_t lo = std::max(spans_[c].start_ns, reach);
      const std::int64_t hi = std::min(spans_[c].end_ns, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    Totals& t = out[s.name];
    ++t.count;
    t.total_ns += static_cast<double>(s.end_ns - s.start_ns);
    t.self_ns += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index,name,key,parent,start_ns,end_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%llu,%lld,%lld,%lld\n", i, s.name,
                 static_cast<unsigned long long>(s.key),
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// --- Counters --------------------------------------------------------------

Counters read_counters(libpax::PaxRuntime& rt) {
  const libpax::SyncStats sync = rt.sync_stats();
  const libpax::PipelineStats pipe = rt.pipeline_stats();
  const device::DeviceStats dev = rt.device().stats();
  const device::HbmStats hbm = rt.device().hbm_stats();
  const device::UndoLoggerStats log = rt.device().log_stats();
  const pmem::PmemStats pm = rt.pm().stats();
  std::uint64_t lock_acq = 0, lock_con = 0;
  rt.device().stripe_lock_totals(&lock_acq, &lock_con);
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"sync.pages_scanned", d(sync.pages_scanned)},
      {"sync.lines_diffed", d(sync.lines_diffed)},
      {"sync.lines_skipped", d(sync.lines_skipped)},
      {"sync.lines_synced", d(sync.lines_synced)},
      {"sync.digest_rebuilds", d(sync.digest_rebuilds)},
      {"pipe.async_persists", d(pipe.async_persists)},
      {"pipe.pages_snapshotted", d(pipe.pages_snapshotted)},
      {"pipe.backpressure_waits", d(pipe.backpressure_waits)},
      {"pipe.occupancy_sum", d(pipe.queue_occupancy_sum)},
      {"rt.persists", d(rt.stats().persists)},
      {"vpm.faults", d(rt.region().fault_count())},
      {"vpm.protects", d(rt.region().protect_syscall_count())},
      {"dev.batch_syncs", d(dev.batch_syncs)},
      {"dev.batch_synced_lines", d(dev.batch_synced_lines)},
      {"dev.forced_log_flushes", d(dev.forced_log_flushes)},
      {"dev.log_ring_stalls", d(dev.log_ring_stalls)},
      {"dev.lock_acquisitions", d(lock_acq)},
      {"dev.lock_contended", d(lock_con)},
      {"hbm.hits", d(hbm.hits)},
      {"hbm.misses", d(hbm.misses)},
      {"hbm.evictions", d(hbm.evictions)},
      {"hbm.stall_evictions", d(hbm.stall_evictions)},
      {"log.records", d(log.records)},
      {"log.bytes_staged", d(log.bytes_staged)},
      {"log.flushes", d(log.flushes)},
      {"pm.line_flushes", d(pm.line_flushes)},
      {"pm.drains", d(pm.drains)},
      {"pm.media_bytes", d(pm.media_bytes_written)},
      {"pm.xpline_blocks", d(pm.xpline_blocks_written)},
      {"committed_epoch", d(rt.committed_epoch())},
  };
}

Counters operator-(Counters a, const Counters& b) {
  for (auto& [name, v] : a) v -= b.at(name);
  return a;
}

Counters& operator+=(Counters& a, const Counters& b) {
  for (const auto& [name, v] : b) a[name] += v;
  return a;
}

void add_layer_metrics(RunResult& r, const LayerInputs& in) {
  const Counters& c = in.delta;
  auto at = [&c](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  const double e = in.epochs;
  const double seals = at("pipe.async_persists");
  const double synced = at("sync.lines_synced");
  const DeviceReplay& dev = in.dev;
  const double dev_total = dev.peek_ns + dev.sync_ns + dev.persist_ns;

  r.metric("durable_p99_us", in.durable_p99_ns / 1e3, "us");
  r.metric("access_p99_us", in.access_p99_ns / 1e3, "us");

  r.metric("kv.get_floor_us", in.get_floor_ns / 1e3, "us");
  r.metric("kv.store.get_us", in.store_get_ns / 1e3, "us");
  r.metric("kv.store.put_us", in.store_put_ns / 1e3, "us");

  r.metric("libpax.group.wave_us", in.wave_ns / 1e3, "us");
  r.metric("libpax.group.ops_per_wave", ratio(in.wave_ops, in.waves), "ops");
  r.metric("libpax.group.shards_per_wave",
           ratio(in.wave_shard_seals, in.waves), "shards");
  r.metric("libpax.group.flushes_per_put",
           in.acked_puts == 0 ? 0 : ratio(at("log.flushes"), in.acked_puts),
           "flushes/op");

  r.metric("libpax.pipeline.pages_per_seal",
           ratio(at("pipe.pages_snapshotted"), seals), "pages");
  r.metric("libpax.pipeline.backpressure_frac",
           ratio(at("pipe.backpressure_waits"), seals), "fraction");
  r.metric("libpax.pipeline.occupancy_mean",
           ratio(at("pipe.occupancy_sum"), seals), "jobs");

  r.metric("libpax.vpm.faults_per_epoch", ratio(at("vpm.faults"), e),
           "faults");
  r.metric("libpax.vpm.us_per_fault", ratio(in.fault_ns, in.faults) / 1e3,
           "us");
  r.metric("libpax.vpm.protect_calls_per_epoch", ratio(at("vpm.protects"), e),
           "calls");

  r.metric("libpax.sync.pages_scanned_per_epoch",
           ratio(at("sync.pages_scanned"), e), "pages");
  r.metric("libpax.sync.lines_skipped_per_epoch",
           ratio(at("sync.lines_skipped"), e), "lines");
  r.metric("libpax.sync.lines_diffed_per_epoch",
           ratio(at("sync.lines_diffed"), e), "lines");
  r.metric("libpax.sync.lines_synced_per_epoch", ratio(synced, e), "lines");
  r.metric("libpax.sync.digest_rebuilds", at("sync.digest_rebuilds"),
           "count");
  r.metric("libpax.persist_us_per_page",
           ratio(in.persist_ns, in.persist_pages) / 1e3, "us");
  r.metric("libpax.persist_us_per_line",
           ratio(in.persist_ns, in.persist_lines) / 1e3, "us");

  r.metric("device.peek_us_per_line", ratio(dev.peek_ns, dev.lines) / 1e3,
           "us");
  r.metric("device.sync_lines_us_per_line", ratio(dev.sync_ns, dev.lines) / 1e3,
           "us");
  r.metric("device.persist_us", ratio(dev.persist_ns, dev.epochs) / 1e3, "us");
  r.metric("device.share_of_persist", ratio(dev_total, in.dev_runtime_ns),
           "fraction");
  r.metric("device.lines_per_sync_batch",
           ratio(at("dev.batch_synced_lines"), at("dev.batch_syncs")), "lines");
  r.metric("device.stripe_contention",
           ratio(at("dev.lock_contended"), at("dev.lock_acquisitions")),
           "fraction");
  r.metric("device.forced_log_flushes_per_epoch",
           ratio(at("dev.forced_log_flushes"), e), "count");

  r.metric("device.hbm.hit_ratio",
           ratio(at("hbm.hits"), at("hbm.hits") + at("hbm.misses")),
           "fraction");
  r.metric("device.hbm.evictions_per_epoch", ratio(at("hbm.evictions"), e),
           "count");
  r.metric("device.hbm.stall_evictions_per_epoch",
           ratio(at("hbm.stall_evictions"), e), "count");

  r.metric("device.log.bytes_per_line",
           ratio(at("log.bytes_staged"), at("log.records")), "bytes");
  r.metric("device.log.flushes_per_epoch", ratio(at("log.flushes"), e),
           "count");
  r.metric("device.log.ring_stalls", at("dev.log_ring_stalls"), "count");

  r.metric("pmem.line_flushes_per_line", ratio(at("pm.line_flushes"), synced),
           "count");
  r.metric("pmem.drains_per_epoch", ratio(at("pm.drains"), e), "count");
  r.metric("pmem.media_bytes_per_user_byte",
           ratio(at("pm.media_bytes"), in.user_bytes), "ratio");
  r.metric("pmem.xpline_amplification",
           ratio(at("pm.xpline_blocks") * 256, at("pm.media_bytes")), "ratio");

  r.metric("fail_frac", in.fail_frac, "fraction");
}

void finish_trace(RunResult& r, const Tracer& tracer,
                  const std::string& path) {
  for (const auto& [name, t] : tracer.totals()) {
    r.info.push_back({"self_us." + name, ratio(t.self_ns, t.count) / 1e3});
  }
  if (!tracer.write_csv(path)) r.fail("cannot write trace file " + path);
}

void check_log_identity(RunResult& r, const std::string& workload,
                        std::size_t shard, const Counters& delta) {
  const double records = delta.at("log.records");
  const double synced = delta.at("sync.lines_synced");
  if (records != synced) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "identity broken: workload=%s shard=%zu counter=log.records "
                  "(%.0f) != sync.lines_synced (%.0f)",
                  workload.c_str(), shard, records, synced);
    r.fail(buf);
  }
}

// --- Commit capture and device-direct replay -------------------------------

void CommitCapture::attach(device::PaxDevice& dev) {
  dev.set_commit_hook(
      [this](Epoch, const std::vector<std::pair<LineIndex, LineData>>& lines) {
        std::lock_guard lock(mu_);
        if (enabled_) epochs_.push_back(CapturedEpoch{lines});
      });
}

void CommitCapture::set_enabled(bool on) {
  std::lock_guard lock(mu_);
  enabled_ = on;
}

std::vector<CapturedEpoch> CommitCapture::take() {
  std::lock_guard lock(mu_);
  return std::move(epochs_);
}

device::DeviceConfig device_config_of(const libpax::RuntimeOptions& options) {
  device::DeviceConfig cfg = options.device;
  if (options.log_ring_slots > 0) cfg.log_ring_slots = options.log_ring_slots;
  return cfg;
}

DeviceReplay replay_on_device(const std::vector<CapturedEpoch>& epochs,
                              std::size_t pool_bytes, std::size_t log_size,
                              const device::DeviceConfig& config,
                              std::size_t batch_lines, Tracer& tracer) {
  DeviceReplay out;
  auto pm = pmem::PmemDevice::create_in_memory(pool_bytes);
  auto pool = pmem::PmemPool::create(pm.get(), log_size);
  if (!pool.ok()) {
    out.ok = false;
    return out;
  }
  device::PaxDevice dev(&pool.value(), config);

  std::vector<LineIndex> lines;
  std::vector<LineData> shadow;
  std::vector<device::LineUpdate> updates;
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    updates.clear();
    for (const auto& [line, data] : epochs[i].lines) {
      updates.push_back({line, data});
    }
    std::sort(updates.begin(), updates.end(),
              [](const auto& a, const auto& b) {
                return a.line.value < b.line.value;
              });
    lines.clear();
    for (const auto& u : updates) lines.push_back(u.line);
    shadow.resize(lines.size());

    const std::uint32_t root = tracer.begin("device_epoch", i);
    std::uint32_t s = tracer.begin("peek_lines", i, root);
    dev.peek_lines(lines, shadow);
    tracer.end(s);
    out.peek_ns += tracer.duration_ns(s);

    s = tracer.begin("sync_lines", i, root);
    for (std::size_t at = 0; at < updates.size(); at += batch_lines) {
      const std::size_t n = std::min(batch_lines, updates.size() - at);
      if (!dev.sync_lines({updates.data() + at, n}).is_ok()) out.ok = false;
    }
    tracer.end(s);
    out.sync_ns += tracer.duration_ns(s);

    auto pull = [&updates](LineIndex line) -> std::optional<LineData> {
      const auto it = std::lower_bound(
          updates.begin(), updates.end(), line.value,
          [](const device::LineUpdate& u, std::uint64_t v) {
            return u.line.value < v;
          });
      if (it == updates.end() || it->line.value != line.value) {
        return std::nullopt;
      }
      return it->data;
    };
    s = tracer.begin("device_persist", i, root);
    if (!dev.persist(pull).ok()) out.ok = false;
    tracer.end(s);
    out.persist_ns += tracer.duration_ns(s);
    tracer.end(root);

    out.lines += static_cast<double>(updates.size());
    out.epochs += 1;
  }
  return out;
}

}  // namespace perfbench
