#include "pax/libpax/runtime.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <unordered_map>

#include "pax/common/check.hpp"
#include "pax/common/log.hpp"

namespace pax::libpax {

std::uint64_t line_digest(const std::byte* line) {
  // Two interleaved lanes (even and odd words) of a = rotl((a ^ w) * k, r).
  // Every step is a bijection of the lane state for a fixed word and of the
  // word for a fixed state, and the final mix is a bijection too, so any
  // change confined to one 8-byte word changes the digest. Two independent
  // lanes also halve the dependency chain.
  std::uint64_t w[kCacheLineSize / sizeof(std::uint64_t)];
  std::memcpy(w, line, kCacheLineSize);
  std::uint64_t a = 0x243F6A8885A308D3ULL;
  std::uint64_t b = 0x13198A2E03707344ULL;
  for (std::size_t i = 0; i < std::size(w); i += 2) {
    a = std::rotl((a ^ w[i]) * 0x9E3779B97F4A7C15ULL, 31);
    b = std::rotl((b ^ w[i + 1]) * 0xC2B2AE3D27D4EB4FULL, 29);
  }
  std::uint64_t h = a ^ std::rotl(b, 32);
  h = (h ^ (h >> 33)) * 0xFF51AFD7ED558CCDULL;
  return h ^ (h >> 33);
}

namespace {

// Source of PaxRuntime::check_id_; 0 is reserved for "no runtime".
std::atomic<std::uint32_t> g_next_check_id{1};

// Per-device remembered vPM base, so reopening a pool maps the region at the
// same address and recovered raw pointers stay valid (within one process;
// across processes the global fixed hint does the same job).
std::mutex g_base_mu;
std::unordered_map<const pmem::PmemDevice*, std::uintptr_t>& base_registry() {
  static std::unordered_map<const pmem::PmemDevice*, std::uintptr_t> reg;
  return reg;
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
  if (options.sync_batch_lines == 0) {
    return invalid_argument("sync_batch_lines must be >= 1");
  }

  auto rt = std::unique_ptr<PaxRuntime>(new PaxRuntime());
  rt->check_id_ = g_next_check_id.fetch_add(1, std::memory_order_relaxed);
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
  auto region = VpmRegion::create(region_size, hint);
  if (!region.ok()) return region.status();
  rt->region_ = std::move(region).value();
  // Default-initialised: untouched pages' digests stay non-resident.
  rt->digests_.reset(
      new std::uint64_t[rt->region_->page_count() * kLinesPerPage]);
  rt->digests_valid_.assign(rt->region_->page_count(), false);
  {
    std::lock_guard lock(g_base_mu);
    base_registry()[pm] =
        reinterpret_cast<std::uintptr_t>(rt->region_->base());
  }

  // Seed the region from the recovered PM image in O(data): only pages
  // holding data are copied, the rest map the zero page. seed() ends in
  // protect_all(), arming write tracking *before* the heap constructor so
  // a fresh heap's format writes are captured like any application store.
  PAX_RETURN_IF_ERROR(rt->region_->seed(*pm, rt->pool_->data_offset()));

  rt->heap_ =
      std::make_unique<PaxHeap>(rt->region_->base(), rt->region_->size());
  register_heap(rt->region_->base(), rt->heap_.get());

  rt->sync_batch_lines_ = options.sync_batch_lines;

  // The runtime numbers epochs itself (commit checks the device agrees);
  // both cursors start at the recovered commit point.
  rt->pipe_committed_ = rt->pool_->committed_epoch();
  rt->pipe_next_epoch_ = rt->pipe_committed_ + 1;
  rt->drain_thread_ =
      std::thread([rt_ptr = rt.get()] { rt_ptr->drain_worker_loop(); });

  PAX_LOG_INFO("pool mapped: epoch=%llu, vPM %zu bytes at %p%s",
               static_cast<unsigned long long>(rt->pool_->committed_epoch()),
               rt->region_->size(), static_cast<void*>(rt->region_->base()),
               rt->heap_->recovered() ? " (heap recovered)" : " (heap fresh)");
  return rt;
}

PaxRuntime::~PaxRuntime() {
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

PaxRuntime::EpochJob PaxRuntime::snapshot(const std::vector<PageIndex>& dirty,
                                          bool copy) {
  EpochJob job;
  job.pages.reserve(dirty.size());
  if (copy) job.copy = std::make_unique<std::byte[]>(dirty.size() * kPageSize);
  // Digests advance to the snapshot here, not after the push: the device
  // WILL hold these bytes once the job is pushed, and the next snapshot's
  // want-computation must compare against them — deferring would let a
  // line rewritten to its pre-snapshot value slip past the digest check.
  // A failed push or commit is sticky, so a digest never outlives a device
  // that does not hold its bytes.
  std::uint64_t rebuilds = 0;
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const PageIndex page = dirty[i];
    const std::byte* live = region_->page_span(page).data();
    const bool valid = digests_valid_[page.value];
    JobPage jp{page, 0, !valid, live};
    if (copy) {
      std::byte* dst = job.copy.get() + i * kPageSize;
      std::memcpy(dst, live, kPageSize);
      jp.bytes = dst;
    }
    std::uint64_t* digests = &digests_[page.value * kLinesPerPage];
    for (std::size_t l = 0; l < kLinesPerPage; ++l) {
      const std::uint64_t d = line_digest(jp.bytes + l * kCacheLineSize);
      if (!valid || d != digests[l]) {
        jp.want |= std::uint64_t{1} << l;
        digests[l] = d;
      }
    }
    if (!valid) {
      digests_valid_[page.value] = true;
      ++rebuilds;
    }
    job.pages.push_back(jp);
  }
  std::lock_guard plock(pipe_mu_);
  sync_stats_.digest_rebuilds += rebuilds;
  return job;
}

Result<PaxRuntime::EpochJob> PaxRuntime::seal(bool copy) {
  // Re-protecting is the ownership-revocation half of the RdShared analogy:
  // the next epoch's first stores are tracked again. A failure is sticky:
  // the scan may have re-protected pages it could not report.
  auto dirty = region_->take_written();
  if (!dirty.ok()) return fail(dirty.status());
  EpochJob job = snapshot(dirty.value(), copy);
  std::vector<std::uint64_t> page_lines;
  page_lines.reserve(job.pages.size());
  for (const JobPage& jp : job.pages) {
    page_lines.push_back(region_line_to_pool_line(jp.page, 0).value);
  }
  {
    std::lock_guard plock(pipe_mu_);
    // Only sync_mu_ holders advance the epoch cursor.
    job.epoch = pipe_next_epoch_++;
    ++stats_.persists;
  }
  // The checker must see the snapshot before any of its pushes.
  if (auto* chk = pm_->checker()) {
    chk->on_pipeline_seal(check_id_, job.epoch, page_lines);
  }
  return job;
}

Status PaxRuntime::push(const EpochJob& job) {
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
      if (chk != nullptr) chk->on_sync_batch_fail(check_id_);
      return st;
    }
    if (chk != nullptr) chk->on_sync_batch_ok(check_id_);
    return Status::ok();
  };

  std::array<LineIndex, kLinesPerPage> cand;
  std::array<std::size_t, kLinesPerPage> slot;
  std::array<LineData, kLinesPerPage> shadow;
  for (const JobPage& jp : job.pages) {
    ++sdelta.pages_scanned;
    std::size_t n = 0;
    for (std::size_t l = 0; l < kLinesPerPage; ++l) {
      if ((jp.want >> l) & 1) {
        cand[n] = region_line_to_pool_line(jp.page, l);
        slot[n] = l;
        ++n;
      }
    }
    sdelta.lines_skipped += kLinesPerPage - n;
    sdelta.lines_diffed += n;
    if (n == 0) continue;
    if (jp.rebuilt) {
      ++delta.device_calls;
      device_->peek_lines(std::span(cand.data(), n),
                          std::span(shadow.data(), n));
    }
    for (std::size_t i = 0; i < n && status.is_ok(); ++i) {
      const LineData cur = LineData::from_bytes(
          {jp.bytes + slot[i] * kCacheLineSize, kCacheLineSize});
      if (jp.rebuilt && cur == shadow[i]) continue;
      ++sdelta.lines_synced;
      if (chk != nullptr) chk->on_sync_push(check_id_, cand[i].value);
      batch.push_back({cand[i], cur});
      if (batch.size() >= sync_batch_lines_) status = flush();
    }
    if (!status.is_ok()) break;
  }
  if (status.is_ok()) status = flush();

  std::lock_guard plock(pipe_mu_);
  stats_.device_calls += delta.device_calls;
  stats_.sync_batches += delta.sync_batches;
  sync_stats_.pages_scanned += sdelta.pages_scanned;
  sync_stats_.lines_diffed += sdelta.lines_diffed;
  sync_stats_.lines_skipped += sdelta.lines_skipped;
  sync_stats_.lines_synced += sdelta.lines_synced;
  return status;
}

Status PaxRuntime::push_and_commit(const EpochJob& job) {
  Status st = push(job);
  if (st.is_ok()) {
    if (auto* chk = pm_->checker()) {
      chk->on_epoch_submit(check_id_, job.epoch);
    }
    auto committed = device_->persist(nullptr);
    if (committed.ok()) {
      PAX_CHECK_MSG(committed.value() == job.epoch,
                    "runtime epoch numbering diverged from the device");
    } else {
      st = committed.status();
    }
  }
  return st;
}

Status PaxRuntime::fail(Status st) {
  {
    std::lock_guard plock(pipe_mu_);
    if (pipe_error_.is_ok()) pipe_error_ = st;
  }
  pipe_cv_.notify_all();
  return st;
}

void PaxRuntime::sync_step() {
  std::lock_guard lock(sync_mu_);
  const check::LockToken sync_token = sync_lock_token();
  {
    std::lock_guard plock(pipe_mu_);
    ++stats_.sync_steps;
    // While snapshots are outstanding the drain worker owns the device
    // epoch path: pushing the live (N+1) pages here would put their content
    // into the device before epoch N commits. New snapshots can't be queued
    // while we hold sync_mu_, so this check can't go stale.
    if (!pipe_error_.is_ok() || !pipe_queue_.empty() || pipe_inflight_) {
      return;
    }
  }
  // The caller is quiesced, so the job reads the live pages. They stay
  // writable and written until a persist re-protects them, so later stores
  // are re-examined there.
  auto dirty = region_->written_pages();
  Status s = dirty.status();
  if (s.is_ok()) s = push(snapshot(dirty.value(), /*copy=*/false));
  if (!s.is_ok()) {
    PAX_LOG_WARN("sync_step: %s", fail(s).to_string().c_str());
    return;
  }
  device_->tick();
}

Result<Epoch> PaxRuntime::persist_async() {
  std::lock_guard lock(sync_mu_);
  const check::LockToken sync_token = sync_lock_token();
  {
    std::unique_lock plock(pipe_mu_);
    if (!pipe_error_.is_ok()) return pipe_error_;
    if (pipe_queue_.size() + (pipe_inflight_ ? 1 : 0) >= kPipelineDepth) {
      ++pipe_stats_.backpressure_waits;
      pipe_cv_.wait(plock, [this] {
        return !pipe_error_.is_ok() ||
               pipe_queue_.size() + (pipe_inflight_ ? 1 : 0) < kPipelineDepth;
      });
      if (!pipe_error_.is_ok()) return pipe_error_;
    }
  }

  // The §3.5 quiescence contract holds for the duration of this call;
  // mutation of the next epoch resumes once the pages are re-protected and
  // we return.
  auto sealed_job = seal(/*copy=*/true);
  if (!sealed_job.ok()) return sealed_job.status();
  EpochJob job = std::move(sealed_job).value();
  const Epoch sealed = job.epoch;
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

Result<Epoch> PaxRuntime::complete_persist() {
  Epoch target = 0;
  {
    std::lock_guard plock(pipe_mu_);
    if (pipe_queue_.empty() && !pipe_inflight_) {
      if (!pipe_error_.is_ok()) return pipe_error_;
      return pipe_committed_;
    }
    // Epochs commit in order, so the queue head is always the successor of
    // the last commit.
    target = pipe_committed_ + 1;
  }
  return wait_persisted(target);
}

Result<Epoch> PaxRuntime::persist() {
  std::lock_guard lock(sync_mu_);
  const check::LockToken sync_token = sync_lock_token();
  {
    // Earlier queued epochs commit first, in order.
    std::unique_lock plock(pipe_mu_);
    pipe_cv_.wait(plock, [this] {
      return !pipe_error_.is_ok() || (pipe_queue_.empty() && !pipe_inflight_);
    });
    if (!pipe_error_.is_ok()) return pipe_error_;
  }
  // Zero-copy: the caller stays quiesced until we return, so the job reads
  // the live pages (re-protected by seal(), which leaves them readable).
  auto sealed = seal(/*copy=*/false);
  if (!sealed.ok()) return sealed.status();
  const EpochJob job = std::move(sealed).value();
  if (Status st = push_and_commit(job); !st.is_ok()) return fail(st);
  {
    std::lock_guard plock(pipe_mu_);
    pipe_committed_ = job.epoch;
  }
  pipe_cv_.notify_all();
  return job.epoch;
}

Result<Epoch> PaxRuntime::wait_persisted(Epoch epoch) {
  // pipe_mu_ only: waiting must not exclude other shards' persist_async
  // issuers (or the drain worker) from making progress.
  std::unique_lock plock(pipe_mu_);
  if (epoch >= pipe_next_epoch_) {
    return failed_precondition("wait_persisted: epoch was never sealed");
  }
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
    // behaves like a crash.
    if (stop_drain_) return;
    const EpochJob job = std::move(pipe_queue_.front());
    pipe_queue_.pop_front();
    pipe_inflight_ = true;
    plock.unlock();
    const Status st = push_and_commit(job);
    plock.lock();
    pipe_inflight_ = false;
    if (st.is_ok()) {
      pipe_committed_ = job.epoch;
      ++pipe_stats_.jobs_drained;
    } else if (pipe_error_.is_ok()) {
      pipe_error_ = st;  // sticky, like fail()
    }
    pipe_cv_.notify_all();
  }
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

Epoch PaxRuntime::committed_epoch() const {
  std::lock_guard plock(pipe_mu_);
  return pipe_committed_;
}

RuntimeStats PaxRuntime::stats() const {
  std::lock_guard plock(pipe_mu_);
  return stats_;
}

SyncStats PaxRuntime::sync_stats() const {
  std::lock_guard plock(pipe_mu_);
  return sync_stats_;
}

PipelineStats PaxRuntime::pipeline_stats() const {
  std::lock_guard plock(pipe_mu_);
  return pipe_stats_;
}

}  // namespace pax::libpax
