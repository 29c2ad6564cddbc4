#include "pax/libpax/runtime.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <unordered_map>

#include "pax/common/check.hpp"
#include "pax/common/crc.hpp"
#include "pax/common/log.hpp"

namespace pax::libpax {

RuntimeOptions RuntimeOptions::deterministic(RuntimeOptions base) {
  base.start_flusher_thread = false;
  base.diff_workers = 1;
  base.device.persist_workers = 1;
  return base;
}

namespace {

// Per-device remembered vPM base, so reopening a pool maps the region at the
// same address and recovered raw pointers stay valid (within one process;
// across processes the global fixed hint does the same job).
std::mutex g_base_mu;
std::unordered_map<const pmem::PmemDevice*, std::uintptr_t>& base_registry() {
  static std::unordered_map<const pmem::PmemDevice*, std::uintptr_t> reg;
  return reg;
}

// Reads one cache line as relaxed atomic 64-bit word loads. The
// mutator-vs-flusher diff race is benign by contract (§3.5): a page stays
// writable and dirty until persist() re-protects it, so whatever torn value
// this captures is re-examined by a later, quiesced diff before it can be
// committed. The loads are genuinely atomic rather than raw loads under a
// TSan exemption, which makes the race defined behavior on both sides —
// concurrent mutators that may overlap a live diff must pair with atomic
// word stores (tests use relaxed word fills) — and lets the TSan job run
// with zero suppressions. Relaxed word loads compile to plain movs on
// x86-64, so this costs nothing over the old exempted version.
LineData capture_line(const std::byte* src) {
  constexpr std::size_t kWords = kCacheLineSize / sizeof(std::uint64_t);
  std::uint64_t words[kWords];
  const auto* in = reinterpret_cast<const std::uint64_t*>(src);
  for (std::size_t i = 0; i < kWords; ++i) {
    words[i] = __atomic_load_n(&in[i], __ATOMIC_RELAXED);
  }
  LineData out;
  std::memcpy(out.bytes.data(), words, kCacheLineSize);  // locals: race-free
  return out;
}

std::uint32_t line_crc(const LineData& d) {
  return crc32c(d.bytes.data(), d.bytes.size());
}

}  // namespace

Result<std::unique_ptr<PaxRuntime>> PaxRuntime::map_pool(
    const std::string& path, std::size_t pool_size,
    const RuntimeOptions& options) {
  auto pm = pmem::PmemDevice::open_file(path, pool_size, /*create=*/true);
  if (!pm.ok()) return pm.status();
  auto owned = std::move(pm).value();
  pmem::PmemDevice* raw = owned.get();
  return build(std::move(owned), raw, options);
}

Result<std::unique_ptr<PaxRuntime>> PaxRuntime::create_in_memory(
    std::size_t pool_size, const RuntimeOptions& options) {
  auto owned = pmem::PmemDevice::create_in_memory(pool_size);
  pmem::PmemDevice* raw = owned.get();
  return build(std::move(owned), raw, options);
}

Result<std::unique_ptr<PaxRuntime>> PaxRuntime::attach(
    pmem::PmemDevice* pm, const RuntimeOptions& options) {
  return build(nullptr, pm, options);
}

Result<std::unique_ptr<PaxRuntime>> PaxRuntime::build(
    std::unique_ptr<pmem::PmemDevice> owned_pm, pmem::PmemDevice* pm,
    const RuntimeOptions& options) {
  if (options.log_size % kPageSize != 0) {
    return invalid_argument("log_size must be page-aligned");
  }
  if (pm->size() % kPageSize != 0) {
    return invalid_argument("pool size must be page-aligned");
  }
  if (options.device.stripes == 0) {
    return invalid_argument("device.stripes must be >= 1");
  }
  if (options.device.persist_workers == 0) {
    return invalid_argument("device.persist_workers must be >= 1");
  }
  if (options.sync_batch_lines == 0) {
    return invalid_argument("sync_batch_lines must be >= 1");
  }
  if (options.diff_workers == 0) {
    return invalid_argument("diff_workers must be >= 1");
  }

  auto rt = std::unique_ptr<PaxRuntime>(new PaxRuntime());
  rt->owned_pm_ = std::move(owned_pm);
  rt->pm_ = pm;

  // Open the pool; a never-formatted device (magic == 0) is formatted.
  if (pm->load_u64(0) == 0) {
    auto created = pmem::PmemPool::create(pm, options.log_size);
    if (!created.ok()) return created.status();
    rt->pool_ = created.value();
  } else {
    auto opened = pmem::PmemPool::open(pm);
    if (!opened.ok()) return opened.status();
    rt->pool_ = opened.value();
  }

  // Roll back any interrupted epoch before anything touches the data (§3.4).
  auto report = device::recover_pool(*rt->pool_);
  if (!report.ok()) return report.status();
  rt->recovery_report_ = report.value();

  device::DeviceConfig dev_cfg = options.device;
  if (options.log_ring_slots > 0) {
    dev_cfg.log_ring_slots = options.log_ring_slots;
  }
  rt->device_ = std::make_unique<device::PaxDevice>(&*rt->pool_, dev_cfg);

  // Map the vPM region: an explicit hint wins (replication failover),
  // otherwise reuse the base any earlier mapping of this device had.
  std::uintptr_t hint = options.vpm_base_hint;
  if (hint == 0) {
    std::lock_guard lock(g_base_mu);
    auto it = base_registry().find(pm);
    if (it != base_registry().end()) hint = it->second;
  }
  const std::size_t region_size = rt->pool_->data_size() & ~(kPageSize - 1);
  // Line-granular tracking on: sync_pages skips digest-clean lines.
  auto region = VpmRegion::create(region_size, hint, true);
  if (!region.ok()) return region.status();
  rt->region_ = std::move(region).value();
  {
    std::lock_guard lock(g_base_mu);
    base_registry()[pm] =
        reinterpret_cast<std::uintptr_t>(rt->region_->base());
  }

  // Seed the region from the recovered PM image.
  pm->load(rt->pool_->data_offset(),
           {rt->region_->base(), rt->region_->size()});

  // Arm write tracking *before* the heap constructor so a fresh heap's
  // format writes are captured like any application store.
  PAX_RETURN_IF_ERROR(rt->region_->protect_all());

  rt->heap_ =
      std::make_unique<PaxHeap>(rt->region_->base(), rt->region_->size());
  register_heap(rt->region_->base(), rt->heap_.get());

  rt->sync_batch_lines_ = options.sync_batch_lines;
  rt->diff_workers_ = options.diff_workers;
  rt->diff_fanout_min_pages_ = options.diff_fanout_min_pages;
  if (rt->diff_workers_ > 1) {
    rt->diff_pool_ = std::make_unique<common::ThreadPool>(rt->diff_workers_ - 1);
  }

  rt->pipeline_depth_ = options.pipeline_depth;
  if (rt->pipeline_depth_ > 0) {
    // The pipeline numbers epochs itself (drain_one checks the device
    // agrees); both cursors start at the recovered commit point.
    rt->pipe_committed_ = rt->pool_->committed_epoch();
    rt->pipe_next_epoch_ = rt->pipe_committed_ + 1;
    rt->drain_thread_ =
        std::thread([rt_ptr = rt.get()] { rt_ptr->drain_worker_loop(); });
  }

  if (options.start_flusher_thread) {
    rt->flusher_ = std::thread([rt_ptr = rt.get(),
                                interval = options.flusher_interval] {
      std::unique_lock lock(rt_ptr->flusher_mu_);
      while (!rt_ptr->stop_flusher_.load(std::memory_order_acquire)) {
        lock.unlock();
        rt_ptr->sync_step();
        lock.lock();
        // Interruptible interval: the destructor flips stop_flusher_ and
        // notifies, so teardown waits one sync_step at most, not a full
        // sleep_for(interval).
        rt_ptr->flusher_cv_.wait_for(lock, interval, [rt_ptr] {
          return rt_ptr->stop_flusher_.load(std::memory_order_acquire);
        });
      }
    });
  }

  PAX_LOG_INFO("pool mapped: epoch=%llu, vPM %zu bytes at %p%s",
               static_cast<unsigned long long>(rt->pool_->committed_epoch()),
               rt->region_->size(), static_cast<void*>(rt->region_->base()),
               rt->heap_->recovered() ? " (heap recovered)" : " (heap fresh)");
  return rt;
}

PaxRuntime::~PaxRuntime() {
  if (flusher_.joinable()) {
    {
      std::lock_guard lock(flusher_mu_);
      stop_flusher_.store(true, std::memory_order_release);
    }
    flusher_cv_.notify_all();
    flusher_.join();
  }
  if (drain_thread_.joinable()) {
    {
      std::lock_guard lock(pipe_mu_);
      stop_drain_ = true;
    }
    pipe_work_cv_.notify_all();
    drain_thread_.join();
  }
  if (region_) unregister_heap(region_->base());
  // Deliberately no flush/persist: destruction without persist() behaves
  // like a crash, which is what the snapshot contract promises — queued
  // pipeline snapshots whose drain never ran are discarded the same way.
}

Status PaxRuntime::sync_pages(const std::vector<PageIndex>& pages) {
  if (pages.empty()) return Status::ok();

  // Static partition: shard s diffs pages [len*s/shards, len*(s+1)/shards).
  // Each shard owns its stats delta and LineUpdate buffer; the device's
  // stripe locking makes concurrent peek_lines/sync_lines safe, and the
  // per-page digests are safe because each page has exactly one shard.
  const std::size_t shards =
      (diff_pool_ == nullptr || pages.size() < diff_fanout_min_pages_)
          ? 1
          : std::min<std::size_t>(diff_workers_, pages.size());

  struct PendingDigest {
    PageIndex page;
    std::size_t line;
    std::uint32_t crc;
  };
  struct Shard {
    RuntimeStats delta;
    SyncStats sdelta;
    Status status = Status::ok();
  };
  std::vector<Shard> results(shards);

  auto diff_shard = [&](std::size_t s) {
    Shard& out = results[s];
    std::vector<device::LineUpdate> batch;
    batch.reserve(sync_batch_lines_);
    std::vector<PendingDigest> pending_digests;
    std::vector<PageIndex> pending_valid;
    std::array<LineIndex, kLinesPerPage> lines;
    std::array<LineData, kLinesPerPage> shadow;
    std::array<LineData, kLinesPerPage> cur;
    std::array<std::uint32_t, kLinesPerPage> crc;

    // Digest writes trail the device: a pushed line's digest (and a rebuilt
    // page's valid flag) is applied only once the sync_lines call carrying
    // the line has succeeded, so a failed flush leaves the digests
    // describing what the device actually holds and a retry re-examines the
    // affected lines instead of skipping them.
    auto flush = [&]() -> Status {
      if (!batch.empty()) {
        ++out.delta.device_calls;
        ++out.delta.sync_batches;
        Status st = device_->sync_lines(batch);
        batch.clear();
        if (!st.is_ok()) {
          if (auto* chk = pm_->checker()) chk->on_sync_batch_fail();
          return st;
        }
        if (auto* chk = pm_->checker()) chk->on_sync_batch_ok();
      }
      for (const PendingDigest& pd : pending_digests) {
        region_->set_line_digest(pd.page, pd.line, pd.crc);
        if (auto* chk = pm_->checker()) {
          chk->on_digest_apply(
              region_line_to_pool_line(pd.page, pd.line).value);
        }
      }
      pending_digests.clear();
      for (PageIndex done : pending_valid) {
        region_->mark_line_digests_valid(done);
      }
      pending_valid.clear();
      return Status::ok();
    };

    auto push = [&](PageIndex page, std::size_t l) -> Status {
      ++out.sdelta.lines_synced;
      if (auto* chk = pm_->checker()) chk->on_sync_push(lines[l].value);
      batch.push_back({lines[l], cur[l]});
      pending_digests.push_back({page, l, crc[l]});
      if (batch.size() >= sync_batch_lines_) return flush();
      return Status::ok();
    };

    const std::size_t lo = pages.size() * s / shards;
    const std::size_t hi = pages.size() * (s + 1) / shards;
    for (std::size_t p = lo; p < hi; ++p) {
      const PageIndex page = pages[p];
      ++out.sdelta.pages_scanned;
      const std::byte* page_bytes = region_->page_span(page).data();
      for (std::size_t l = 0; l < kLinesPerPage; ++l) {
        lines[l] = region_line_to_pool_line(page, l);
        cur[l] = capture_line(page_bytes + l * kCacheLineSize);
        crc[l] = line_crc(cur[l]);
      }

      if (region_->line_digests_valid(page)) {
        // Digests valid: only the candidate lines — fault-observed stores
        // plus digest mismatches — touch the device shadow. A candidate bit
        // forces the memcmp even when its digest matches (the collision
        // fallback); the remaining lines are skipped outright.
        std::uint64_t want = region_->candidate_lines(page);
        for (std::size_t l = 0; l < kLinesPerPage; ++l) {
          if (crc[l] != region_->line_digest(page, l)) {
            want |= std::uint64_t{1} << l;
          }
        }
        std::array<LineIndex, kLinesPerPage> cand;
        std::array<std::size_t, kLinesPerPage> slot;
        std::size_t n = 0;
        for (std::size_t l = 0; l < kLinesPerPage; ++l) {
          if ((want >> l) & 1) {
            cand[n] = lines[l];
            slot[n] = l;
            ++n;
          }
        }
        out.sdelta.lines_skipped += kLinesPerPage - n;
        if (n == 0) continue;
        ++out.delta.device_calls;
        device_->peek_lines(std::span(cand.data(), n),
                            std::span(shadow.data(), n));
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t l = slot[i];
          ++out.sdelta.lines_diffed;
          if (cur[l] == shadow[i]) {
            // Candidate but unchanged (rewrite of the same value, or a
            // collision suspect that compared clean): the device already
            // holds cur, so the digest can advance immediately.
            region_->set_line_digest(page, l, crc[l]);
            if (auto* chk = pm_->checker()) {
              chk->on_digest_apply(lines[l].value);
            }
            continue;
          }
          Status st = push(page, l);
          if (!st.is_ok()) {
            out.status = st;
            return;
          }
        }
      } else {
        // First diff of a page (or digests invalidated): fetch the whole
        // page shadow; this full compare seeds every digest (the rebuild).
        ++out.delta.device_calls;
        device_->peek_lines(lines, shadow);
        for (std::size_t l = 0; l < kLinesPerPage; ++l) {
          ++out.sdelta.lines_diffed;
          if (cur[l] == shadow[l]) {
            region_->set_line_digest(page, l, crc[l]);
            if (auto* chk = pm_->checker()) {
              chk->on_digest_apply(lines[l].value);
            }
            continue;
          }
          Status st = push(page, l);
          if (!st.is_ok()) {
            out.status = st;
            return;
          }
        }
        pending_valid.push_back(page);
        ++out.sdelta.digest_rebuilds;
      }
    }
    out.status = flush();
  };

  if (shards == 1) {
    diff_shard(0);
  } else {
    diff_pool_->parallel_for(shards, diff_shard);
  }

  // Merge shard deltas (caller holds sync_mu_; workers have joined).
  Status first = Status::ok();
  for (const Shard& sh : results) {
    stats_.device_calls += sh.delta.device_calls;
    stats_.sync_batches += sh.delta.sync_batches;
    sync_stats_.pages_scanned += sh.sdelta.pages_scanned;
    sync_stats_.lines_diffed += sh.sdelta.lines_diffed;
    sync_stats_.lines_skipped += sh.sdelta.lines_skipped;
    sync_stats_.lines_synced += sh.sdelta.lines_synced;
    sync_stats_.digest_rebuilds += sh.sdelta.digest_rebuilds;
    if (first.is_ok() && !sh.status.is_ok()) first = sh.status;
  }
  return first;
}

void PaxRuntime::sync_step() {
  std::lock_guard lock(sync_mu_);
  const check::LockToken sync_token = sync_lock_token();
  ++stats_.sync_steps;
  if (pipeline_depth_ > 0) {
    // While snapshots are outstanding the drain worker owns the device
    // epoch path: syncing the live (N+1) dirty pages here would push their
    // content into the device before epoch N seals. New snapshots can't be
    // enqueued while we hold sync_mu_, so this check can't go stale.
    std::lock_guard plock(pipe_mu_);
    if (!pipe_queue_.empty() || pipe_inflight_) return;
  }
  // Pages stay writable and dirty until persist() re-protects them, so any
  // store racing this diff is re-examined later; see runtime.hpp.
  Status s = sync_pages(region_->dirty_pages());
  if (!s.is_ok()) {
    PAX_LOG_WARN("background sync: %s", s.to_string().c_str());
    return;
  }
  device_->tick();
  // Complete a pending non-blocking persist off the application's path.
  if (device_->has_sealed_epoch()) {
    auto committed = device_->commit_sealed();
    if (!committed.ok()) {
      PAX_LOG_WARN("async commit: %s",
                   committed.status().to_string().c_str());
    }
  }
}

Result<Epoch> PaxRuntime::persist_async() {
  std::lock_guard lock(sync_mu_);
  const check::LockToken sync_token = sync_lock_token();
  if (pipeline_depth_ > 0) return persist_async_pipelined();
  if (device_->has_sealed_epoch()) {
    // Epochs commit in order: finish the previous one first.
    auto committed = device_->commit_sealed();
    if (!committed.ok()) return committed.status();
  }

  const std::vector<PageIndex> dirty = region_->dirty_pages();
  PAX_RETURN_IF_ERROR(sync_pages(dirty));

  auto pull = [this](LineIndex line) -> std::optional<LineData> {
    const PoolOffset off = line.byte_offset() - pool_->data_offset();
    return LineData::from_bytes({region_->base() + off, kCacheLineSize});
  };
  auto sealed = device_->seal_epoch(pull);
  if (!sealed.ok()) return sealed.status();
  ++stats_.persists;

  PAX_RETURN_IF_ERROR(region_->protect_pages(dirty));
  return sealed;
}

Result<Epoch> PaxRuntime::complete_persist() {
  std::lock_guard lock(sync_mu_);
  const check::LockToken sync_token = sync_lock_token();
  if (pipeline_depth_ > 0) {
    Epoch target = 0;
    {
      std::lock_guard plock(pipe_mu_);
      if (pipe_queue_.empty() && !pipe_inflight_) {
        if (!pipe_error_.is_ok()) return pipe_error_;
        return pool_->committed_epoch();
      }
      // Epochs commit in order, so the queue head is always the successor
      // of the last pipeline commit.
      target = pipe_committed_ + 1;
    }
    return wait_for_pipeline_epoch(target);
  }
  return device_->commit_sealed();
}

Result<Epoch> PaxRuntime::wait_persisted(Epoch epoch) {
  if (pipeline_depth_ > 0) {
    // pipe_mu_ only: waiting must not exclude other shards' persist_async
    // issuers (or the drain worker) from making progress.
    return wait_for_pipeline_epoch(epoch);
  }
  if (committed_epoch() >= epoch) return epoch;
  auto committed = complete_persist();
  if (!committed.ok()) return committed.status();
  if (committed.value() < epoch) {
    return failed_precondition("wait_persisted: epoch was never sealed");
  }
  return epoch;
}

Result<Epoch> PaxRuntime::persist() {
  std::lock_guard lock(sync_mu_);
  const check::LockToken sync_token = sync_lock_token();
  if (pipeline_depth_ > 0) {
    auto sealed = persist_async_pipelined();
    if (!sealed.ok()) return sealed.status();
    return wait_for_pipeline_epoch(sealed.value());
  }

  const std::vector<PageIndex> dirty = region_->dirty_pages();
  PAX_RETURN_IF_ERROR(sync_pages(dirty));

  // The pull callback hands the device the region's (authoritative) current
  // line; re-protecting the pages below is the ownership-revocation half of
  // the RdShared analogy.
  auto pull = [this](LineIndex line) -> std::optional<LineData> {
    const PoolOffset off = line.byte_offset() - pool_->data_offset();
    return LineData::from_bytes({region_->base() + off, kCacheLineSize});
  };
  auto committed = device_->persist(pull);
  if (!committed.ok()) return committed.status();
  ++stats_.persists;

  PAX_RETURN_IF_ERROR(region_->protect_pages(dirty));
  return committed;
}

Result<Epoch> PaxRuntime::persist_async_pipelined() {
  {
    std::unique_lock plock(pipe_mu_);
    if (!pipe_error_.is_ok()) return pipe_error_;
    if (pipe_queue_.size() + (pipe_inflight_ ? 1 : 0) >= pipeline_depth_) {
      ++pipe_stats_.backpressure_waits;
      pipe_cv_.wait(plock, [this] {
        return !pipe_error_.is_ok() ||
               pipe_queue_.size() + (pipe_inflight_ ? 1 : 0) <
                   pipeline_depth_;
      });
      if (!pipe_error_.is_ok()) return pipe_error_;
    }
  }

  // Swap the dirty set into the sealed-epoch snapshot. The §3.5 quiescence
  // contract holds for the duration of this call, so plain copies are
  // race-free; mutation of the next epoch resumes once the pages below are
  // re-protected and we return.
  //
  // Digests advance to the snapshot here, not after the drain: the device
  // WILL hold the snapshot once the job commits, and the next epoch's
  // want-computation must compare against it — deferring would let a line
  // rewritten to its pre-snapshot value slip past the digest check (the
  // candidate bit only covers the page's first faulting line). A failed
  // drain invalidates the affected pages' digests wholesale instead. No
  // kDigestApply events are emitted: that rule models the single-buffered
  // path, where a digest may not outrun its in-flight batch.
  const std::vector<PageIndex> dirty = region_->dirty_pages();
  PipelineJob job;
  job.pages.reserve(dirty.size());
  std::vector<std::uint64_t> page_lines;
  page_lines.reserve(dirty.size());
  for (PageIndex page : dirty) {
    PipelinePageSnap snap;
    snap.page = page;
    snap.bytes = std::make_unique<std::byte[]>(kPageSize);
    std::memcpy(snap.bytes.get(), region_->page_span(page).data(),
                kPageSize);
    if (region_->line_digests_valid(page)) {
      std::uint64_t want = region_->candidate_lines(page);
      for (std::size_t l = 0; l < kLinesPerPage; ++l) {
        const std::uint32_t crc =
            crc32c(snap.bytes.get() + l * kCacheLineSize, kCacheLineSize);
        if (crc != region_->line_digest(page, l)) {
          want |= std::uint64_t{1} << l;
          region_->set_line_digest(page, l, crc);
        }
      }
      snap.want = want;
    } else {
      snap.want = ~std::uint64_t{0};
      for (std::size_t l = 0; l < kLinesPerPage; ++l) {
        region_->set_line_digest(
            page, l,
            crc32c(snap.bytes.get() + l * kCacheLineSize, kCacheLineSize));
      }
      region_->mark_line_digests_valid(page);
      ++sync_stats_.digest_rebuilds;
    }
    page_lines.push_back(region_line_to_pool_line(page, 0).value);
    job.pages.push_back(std::move(snap));
  }
  PAX_RETURN_IF_ERROR(region_->protect_pages(dirty));

  // Only this (sync_mu_-serialized) producer advances the epoch cursor.
  job.epoch = pipe_next_epoch_++;
  const Epoch sealed = job.epoch;
  // The checker must see the snapshot before any of the drain's pushes;
  // the queue handoff below orders the emissions.
  if (auto* chk = pm_->checker()) chk->on_pipeline_seal(sealed, page_lines);

  ++stats_.persists;  // sync_mu_ is held by every caller
  {
    std::lock_guard plock(pipe_mu_);
    ++pipe_stats_.async_persists;
    pipe_stats_.pages_snapshotted += job.pages.size();
    pipe_queue_.push_back(std::move(job));
    const std::uint64_t occupancy =
        pipe_queue_.size() + (pipe_inflight_ ? 1 : 0);
    pipe_stats_.queue_occupancy_sum += occupancy;
    pipe_stats_.queue_occupancy_max =
        std::max(pipe_stats_.queue_occupancy_max, occupancy);
  }
  pipe_work_cv_.notify_one();
  return sealed;
}

Result<Epoch> PaxRuntime::wait_for_pipeline_epoch(Epoch epoch) {
  std::unique_lock plock(pipe_mu_);
  pipe_cv_.wait(plock, [this, epoch] {
    return !pipe_error_.is_ok() || pipe_committed_ >= epoch;
  });
  if (pipe_committed_ >= epoch) return epoch;
  return pipe_error_;
}

void PaxRuntime::drain_worker_loop() {
  std::unique_lock plock(pipe_mu_);
  for (;;) {
    pipe_work_cv_.wait(plock, [this] {
      return stop_drain_ || (!pipe_queue_.empty() && pipe_error_.is_ok());
    });
    // Stopping abandons queued snapshots: destruction without their commit
    // behaves like a crash, exactly like the flusher's shutdown.
    if (stop_drain_) return;
    PipelineJob job = std::move(pipe_queue_.front());
    pipe_queue_.pop_front();
    pipe_inflight_ = true;
    plock.unlock();
    const Status st = drain_one(job);
    plock.lock();
    pipe_inflight_ = false;
    if (st.is_ok()) {
      pipe_committed_ = job.epoch;
      ++pipe_stats_.jobs_drained;
    } else if (pipe_error_.is_ok()) {
      pipe_error_ = st;
    }
    pipe_cv_.notify_all();
  }
}

Status PaxRuntime::drain_one(const PipelineJob& job) {
  auto* chk = pm_->checker();
  RuntimeStats delta;
  SyncStats sdelta;
  Status status = Status::ok();

  std::vector<device::LineUpdate> batch;
  batch.reserve(sync_batch_lines_);
  auto flush = [&]() -> Status {
    if (batch.empty()) return Status::ok();
    ++delta.device_calls;
    ++delta.sync_batches;
    Status st = device_->sync_lines(batch);
    batch.clear();
    if (!st.is_ok()) {
      if (chk != nullptr) chk->on_sync_batch_fail();
      return st;
    }
    if (chk != nullptr) chk->on_sync_batch_ok();
    return Status::ok();
  };

  std::array<LineIndex, kLinesPerPage> cand;
  std::array<std::size_t, kLinesPerPage> slot;
  std::array<LineData, kLinesPerPage> shadow;
  for (const PipelinePageSnap& snap : job.pages) {
    ++sdelta.pages_scanned;
    std::size_t n = 0;
    for (std::size_t l = 0; l < kLinesPerPage; ++l) {
      if ((snap.want >> l) & 1) {
        cand[n] = region_line_to_pool_line(snap.page, l);
        slot[n] = l;
        ++n;
      }
    }
    sdelta.lines_skipped += kLinesPerPage - n;
    if (n == 0) continue;
    ++delta.device_calls;
    device_->peek_lines(std::span(cand.data(), n),
                        std::span(shadow.data(), n));
    for (std::size_t i = 0; i < n && status.is_ok(); ++i) {
      ++sdelta.lines_diffed;
      const LineData cur = LineData::from_bytes(
          {snap.bytes.get() + slot[i] * kCacheLineSize, kCacheLineSize});
      if (cur == shadow[i]) continue;
      ++sdelta.lines_synced;
      if (chk != nullptr) chk->on_sync_push(cand[i].value);
      batch.push_back({cand[i], cur});
      if (batch.size() >= sync_batch_lines_) status = flush();
    }
    if (!status.is_ok()) break;
  }
  if (status.is_ok()) status = flush();

  if (status.is_ok()) {
    // Seal pulls the epoch-boundary image from the SNAPSHOT: the live
    // region already carries epoch N+1. Every line the device logged this
    // epoch was pushed from this job, so the fallback is defensive only.
    std::unordered_map<std::uint64_t, const PipelinePageSnap*> by_page;
    by_page.reserve(job.pages.size());
    for (const PipelinePageSnap& snap : job.pages) {
      by_page.emplace(snap.page.value, &snap);
    }
    auto pull = [this, &by_page](LineIndex line) -> std::optional<LineData> {
      const PoolOffset off = line.byte_offset() - pool_->data_offset();
      const auto it = by_page.find(off / kPageSize);
      if (it != by_page.end()) {
        return LineData::from_bytes(
            {it->second->bytes.get() + off % kPageSize, kCacheLineSize});
      }
      return LineData::from_bytes({region_->base() + off, kCacheLineSize});
    };
    auto sealed = device_->seal_epoch(pull);
    if (!sealed.ok()) {
      status = sealed.status();
    } else {
      PAX_CHECK_MSG(sealed.value() == job.epoch,
                    "pipeline epoch numbering diverged from the device");
      auto committed = device_->commit_sealed();
      if (!committed.ok()) status = committed.status();
    }
  }

  if (!status.is_ok()) {
    // Snapshot-time digests describe content the device may not hold now;
    // drop the job's pages back to the full-compare path.
    for (const PipelinePageSnap& snap : job.pages) {
      region_->invalidate_line_digests(snap.page);
    }
  }

  std::lock_guard plock(pipe_mu_);
  pipe_rt_delta_.device_calls += delta.device_calls;
  pipe_rt_delta_.sync_batches += delta.sync_batches;
  pipe_sync_delta_.pages_scanned += sdelta.pages_scanned;
  pipe_sync_delta_.lines_diffed += sdelta.lines_diffed;
  pipe_sync_delta_.lines_skipped += sdelta.lines_skipped;
  pipe_sync_delta_.lines_synced += sdelta.lines_synced;
  return status;
}

void PaxRuntime::read_snapshot(PoolOffset region_offset,
                               std::span<std::byte> out) {
  PAX_CHECK(region_offset + out.size() <= region_->size());
  // Ranged batch: resolve up to a page worth of committed lines per device
  // call instead of one line at a time. LineData is exactly kCacheLineSize
  // bytes (static_assert in types.hpp), so the chunk buffer is
  // byte-contiguous and unaligned head/tail copies can span lines.
  constexpr std::size_t kChunkLines = kLinesPerPage;
  std::array<LineData, kChunkLines> chunk;
  std::size_t done = 0;
  while (done < out.size()) {
    const PoolOffset cur = region_offset + done;
    const LineIndex first =
        LineIndex::containing(pool_->data_offset() + cur);
    const std::size_t in_line = cur % kCacheLineSize;
    const std::size_t remaining = out.size() - done;
    const std::size_t lines_needed =
        (in_line + remaining + kCacheLineSize - 1) / kCacheLineSize;
    const std::size_t lines = std::min(kChunkLines, lines_needed);
    device_->read_committed_lines(first, std::span(chunk.data(), lines));
    const std::size_t n =
        std::min(lines * kCacheLineSize - in_line, remaining);
    std::memcpy(out.data() + done,
                reinterpret_cast<const std::byte*>(chunk.data()) + in_line,
                n);
    done += n;
  }
}

RuntimeStats PaxRuntime::stats() const {
  std::lock_guard lock(sync_mu_);
  const check::LockToken sync_token = sync_lock_token();
  RuntimeStats out = stats_;
  if (pipeline_depth_ > 0) {
    // Fold in the drain worker's contribution (it never touches stats_
    // directly — sync_mu_ is off-limits to it).
    std::lock_guard plock(pipe_mu_);
    out.device_calls += pipe_rt_delta_.device_calls;
    out.sync_batches += pipe_rt_delta_.sync_batches;
  }
  return out;
}

SyncStats PaxRuntime::sync_stats() const {
  std::lock_guard lock(sync_mu_);
  const check::LockToken sync_token = sync_lock_token();
  SyncStats out = sync_stats_;
  if (pipeline_depth_ > 0) {
    std::lock_guard plock(pipe_mu_);
    out.pages_scanned += pipe_sync_delta_.pages_scanned;
    out.lines_diffed += pipe_sync_delta_.lines_diffed;
    out.lines_skipped += pipe_sync_delta_.lines_skipped;
    out.lines_synced += pipe_sync_delta_.lines_synced;
  }
  return out;
}

PipelineStats PaxRuntime::pipeline_stats() const {
  std::lock_guard plock(pipe_mu_);
  return pipe_stats_;
}

}  // namespace pax::libpax
