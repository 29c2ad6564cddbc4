// The libpax workloads: one PaxRuntime with default RuntimeOptions
// (blocking persist(), no pipeline, mutex undo log) on in-memory PM.
// Each epoch stores into a set of pages drawn from a fixed span, then calls
// persist().
//
//   persist_sparse  8 B into one line of each of 256 pages (of 4,096):
//                   per-page costs dominate (fault, scan, digest, protect).
//   persist_dense   all 64 lines of 96 pages = 6,144 lines, 1.5x the
//                   4,096-line HBM buffer: per-line device work dominates.
#include <algorithm>
#include <array>
#include <cstring>
#include <optional>

#include "bench.hpp"

namespace perfbench {

using namespace pax;

namespace {

struct Shape {
  std::size_t span_pages = 0;
  std::size_t pages_per_epoch = 0;
  bool dense = false;

  std::size_t user_bytes_per_epoch() const {
    return pages_per_epoch * (dense ? kPageSize : sizeof(std::uint64_t));
  }
};

Shape shape_of(const RunOptions& opt) {
  const bool dense = opt.workload == "persist_dense";
  if (opt.short_mode) return {512, dense ? 16u : 32u, dense};
  return {4096, dense ? 96u : 256u, dense};
}

std::size_t pool_bytes(const Shape& s, std::size_t log_size) {
  // Header, log extent, the span, and room for the heap's own metadata.
  return pmem::kPoolHeaderSize + log_size + s.span_pages * kPageSize +
         (1 << 20);
}

/// The seeded input of each epoch: which pages it touches, where, and with
/// what. Every store carries the epoch number, so each one changes its line.
class EpochGen {
 public:
  EpochGen(std::uint64_t seed, const Shape& s) : s_(s), rng_(seed) {
    perm_.resize(s.span_pages);
    for (std::size_t i = 0; i < perm_.size(); ++i) {
      perm_[i] = static_cast<std::uint32_t>(i);
    }
    where_.resize(s.pages_per_epoch);
  }

  void next() {
    ++epoch_;
    // Partial Fisher-Yates: the prefix is this epoch's distinct pages.
    for (std::size_t i = 0; i < s_.pages_per_epoch; ++i) {
      const std::size_t j = i + splitmix(rng_) % (perm_.size() - i);
      std::swap(perm_[i], perm_[j]);
      where_[i] = static_cast<std::uint32_t>(splitmix(rng_) % kPageSize) &
                  ~std::uint32_t{7};
    }
    for (auto& w : pattern_) w = splitmix(rng_);
  }

  void apply(std::byte* span) const {
    for (std::size_t i = 0; i < s_.pages_per_epoch; ++i) {
      const std::uint64_t page = perm_[i];
      std::byte* p = span + page * kPageSize;
      if (!s_.dense) {
        const std::uint64_t v = (epoch_ << 32) | page;
        std::memcpy(p + where_[i], &v, sizeof(v));
        continue;
      }
      std::array<std::uint64_t, 8> line = pattern_;
      for (std::size_t l = 0; l < kLinesPerPage; ++l) {
        line[0] = (epoch_ << 32) | (page << 6) | l;
        std::memcpy(p + l * kCacheLineSize, line.data(), kCacheLineSize);
      }
    }
  }

 private:
  Shape s_;
  std::uint64_t rng_;
  std::uint64_t epoch_ = 0;
  std::vector<std::uint32_t> perm_;
  std::vector<std::uint32_t> where_;
  std::array<std::uint64_t, 8> pattern_{};
};

struct Rig {
  std::unique_ptr<pmem::PmemDevice> pm;
  std::unique_ptr<libpax::PaxRuntime> rt;  // borrows pm; destroyed first
  std::size_t span_off = 0;

  std::byte* span() const { return rt->vpm_base() + span_off; }
};

/// Attach to fresh PM, allocate the span, and store once into every page
/// of it before a persist(): that first diff seeds each page's line
/// digests, so measured epochs run the tracked diff.
Status set_up(Rig& rig, const Shape& s, const libpax::RuntimeOptions& ro) {
  rig.rt.reset();
  rig.pm.reset();  // before the next one, so two never coexist
  rig.pm = pmem::PmemDevice::create_in_memory(pool_bytes(s, ro.log_size));
  auto rt = libpax::PaxRuntime::attach(rig.pm.get(), ro);
  if (!rt.ok()) return rt.status();
  rig.rt = std::move(rt).value();
  void* p = rig.rt->heap().allocate(s.span_pages * kPageSize, kPageSize);
  if (p == nullptr) return out_of_space("span does not fit the pool");
  rig.span_off = static_cast<std::size_t>(static_cast<std::byte*>(p) -
                                          rig.rt->vpm_base());
  for (std::uint64_t page = 0; page < s.span_pages; ++page) {
    std::memcpy(rig.span() + page * kPageSize, &page, sizeof(page));
  }
  return rig.rt->persist().status();
}

}  // namespace

RunResult run_persist(const RunOptions& opt) {
  RunResult r;
  const Shape s = shape_of(opt);
  const libpax::RuntimeOptions ro{};
  CommitCapture capture;  // outlives every device it is attached to
  Rig rig;

  // Set up several times and keep the last rig: setup_s is their median.
  // A traced run reports no setup_s and sets up once.
  std::vector<double> setup_s;
  const int setups = opt.trace ? 1 : opt.short_mode ? 2 : 15;
  for (int i = 0; i < setups; ++i) {
    const auto t0 = Clock::now();
    const Status st = set_up(rig, s, ro);
    setup_s.push_back(ns_between(t0, Clock::now()) / 1e9);
    if (!st.is_ok()) {
      r.fail("set-up: " + st.to_string());
      return r;
    }
  }

  EpochGen gen(opt.seed, s);
  const std::size_t capture_epochs = opt.short_mode ? 4 : 32;
  Tracer tracer;
  std::optional<Series> mutate_s, persist_s;  // from the measured phase on
  double mutate_total = 0, persist_total = 0, rewrite_total = 0;
  double dev_runtime_ns = 0;
  std::uint64_t warm_epochs = 0, epochs = 0;
  Counters before;

  // Warm-up epochs (thread pools, HBM contents), then the measured phase.
  const double warm_s = std::min(1.0, opt.seconds / 10);
  Clock::time_point phase_start = Clock::now();
  Clock::time_point deadline =
      phase_start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(warm_s));
  bool measuring = false;
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (now >= deadline) {
      if (measuring) break;
      measuring = true;
      before = read_counters(*rig.rt);
      if (opt.trace) {
        capture.attach(rig.rt->device());
        capture.set_enabled(true);
      }
      phase_start = Clock::now();
      deadline = phase_start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(opt.seconds));
      mutate_s.emplace(phase_start, opt.seconds);
      persist_s.emplace(phase_start, opt.seconds);
    }
    const bool traced = measuring && opt.trace;
    gen.next();
    std::uint32_t root = 0, span = 0;
    if (traced) root = tracer.begin("epoch", epochs);

    if (traced) span = tracer.begin("mutate", epochs, root);
    const auto t0 = Clock::now();
    gen.apply(rig.span());
    const auto t1 = Clock::now();
    if (traced) {
      tracer.end(span);
      // The same stores again, now on writable pages: store cost without
      // faults, which prices a fault as the difference.
      span = tracer.begin("rewrite", epochs, root);
      gen.apply(rig.span());
      tracer.end(span);
      rewrite_total += tracer.duration_ns(span);
      span = tracer.begin("persist", epochs, root);
    }
    const auto t2 = Clock::now();
    const auto committed = rig.rt->persist();
    const auto t3 = Clock::now();
    if (traced) {
      tracer.end(span);
      tracer.end(root);
    }
    if (!committed.ok()) {
      r.fail("persist: " + committed.status().to_string());
      break;
    }
    if (!measuring) {
      ++warm_epochs;
      continue;
    }
    mutate_s->add(t3, ns_between(t0, t1));
    persist_s->add(t3, ns_between(t2, t3));
    mutate_total += ns_between(t0, t1);
    persist_total += ns_between(t2, t3);
    if (traced && epochs < capture_epochs) {
      dev_runtime_ns += ns_between(t2, t3);
      if (epochs + 1 == capture_epochs) capture.set_enabled(false);
    }
    ++epochs;
  }
  capture.set_enabled(false);
  if (!measuring) return r;  // a warm-up persist() failed

  // Counter identities over the measured phase.
  const Counters delta = read_counters(*rig.rt) - before;
  check_log_identity(r, opt.workload, 0, delta);
  if (delta.at("rt.persists") != delta.at("committed_epoch")) {
    r.fail("identity broken: workload=" + opt.workload +
           " shard=0 counter=rt.persists (" +
           std::to_string(delta.at("rt.persists")) +
           ") != committed-epoch delta (" +
           std::to_string(delta.at("committed_epoch")) + ")");
  }

  // Crash check: stores of one more epoch are never persisted; after
  // crash(drop_all) + attach, the span must read exactly as it did at the
  // last committed epoch.
  const std::size_t span_bytes = s.span_pages * kPageSize;
  const std::vector<std::byte> expected(rig.span(), rig.span() + span_bytes);
  const Epoch last = rig.rt->committed_epoch();
  gen.next();
  gen.apply(rig.span());
  rig.rt.reset();
  rig.pm->crash(pmem::CrashConfig::drop_all());
  auto back = libpax::PaxRuntime::attach(rig.pm.get(), ro);
  if (!back.ok()) {
    r.fail("crash check: attach failed: " + back.status().to_string());
  } else {
    rig.rt = std::move(back).value();
    if (rig.rt->committed_epoch() != last) {
      r.fail("crash check: recovered epoch " +
             std::to_string(rig.rt->committed_epoch()) + ", expected " +
             std::to_string(last));
    } else if (std::memcmp(rig.span(), expected.data(), span_bytes) != 0) {
      std::size_t page = 0;
      while (std::memcmp(rig.span() + page * kPageSize,
                         expected.data() + page * kPageSize, kPageSize) == 0) {
        ++page;
      }
      r.fail("crash check: epoch " + std::to_string(last) +
             " differs after recovery, first at span page " +
             std::to_string(page));
    }
  }
  r.attempted = warm_epochs + epochs + 1;
  r.info.push_back({"setups", static_cast<double>(setup_s.size())});
  r.info.push_back({"warmup_epochs", static_cast<double>(warm_epochs)});
  r.info.push_back({"epochs", static_cast<double>(epochs)});

  if (!opt.trace) {
    r.metric("ops_per_s", persist_s->fast_rate(), "1/s");
    r.metric("durable_p50_us", persist_s->fast_quantile(0.50) / 1e3, "us");
    r.metric("access_p50_us", mutate_s->fast_quantile(0.50) / 1e3, "us");
    r.metric("setup_s", median(setup_s), "s");
    return r;
  }

  LayerInputs in;
  in.durable_p99_ns = persist_s->median_window_quantile(0.99);
  in.access_p99_ns = mutate_s->median_window_quantile(0.99);
  in.delta = delta;
  in.epochs = static_cast<double>(epochs);
  in.user_bytes = static_cast<double>(epochs * s.user_bytes_per_epoch());
  in.fault_ns = mutate_total - rewrite_total;
  in.faults = delta.at("vpm.faults");
  in.persist_ns = persist_total;
  in.persist_pages = delta.at("sync.pages_scanned");
  in.persist_lines = delta.at("sync.lines_synced");

  in.dev = replay_on_device(capture.take(), pool_bytes(s, ro.log_size),
                            ro.log_size, device_config_of(ro),
                            ro.sync_batch_lines, tracer);
  if (!in.dev.ok) r.fail("device replay: a device call failed");
  in.dev_runtime_ns = dev_runtime_ns;
  in.fail_frac = ratio(static_cast<double>(r.failed),
                       static_cast<double>(r.attempted));
  add_layer_metrics(r, in);
  finish_trace(r, tracer, opt.trace_file);
  return r;
}

}  // namespace perfbench
