#include "pax/device/pax_device.hpp"

#include <algorithm>

#include "pax/common/check.hpp"
#include "pax/common/log.hpp"

namespace pax::device {
namespace {

unsigned floor_pow2(unsigned v) {
  unsigned p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

std::atomic<std::uint32_t> g_device_id{0};

}  // namespace

PaxDevice::PaxDevice(pmem::PmemPool* pool, const DeviceConfig& config)
    : pool_(pool),
      pm_(pool->device()),
      config_(config),
      device_id_(g_device_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(pool->committed_epoch() + 1) {
  PAX_CHECK(pool != nullptr);

  // Effective stripe count: a power of two, capped so every stripe keeps at
  // least one full HBM set (otherwise small-buffer configs would silently
  // grow their aggregate capacity).
  PAX_CHECK_MSG(config.stripes >= 1, "stripes must be >= 1");
  const unsigned hbm_sets = static_cast<unsigned>(std::max<std::size_t>(
      1, config.hbm.capacity_lines / config.hbm.ways));
  const unsigned n = floor_pow2(std::min(config.stripes, hbm_sets));
  stripe_mask_ = n - 1;

  HbmConfig per_stripe = config.hbm;
  per_stripe.capacity_lines =
      std::max<std::size_t>(config.hbm.ways, config.hbm.capacity_lines / n);
  stripes_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    stripes_.push_back(std::make_unique<Stripe>(per_stripe));
    stripes_.back()->index = i;
  }

  logger_ = std::make_unique<UndoLogger>(pm_, pool->log_offset(),
                                         pool->log_size());
  if (config.log_ring_slots > 0) logger_->enable_ring(config.log_ring_slots);
}

void PaxDevice::check_line_in_data_extent(LineIndex line) const {
  const PoolOffset off = line.byte_offset();
  PAX_CHECK_MSG(off >= pool_->data_offset() &&
                    off + kCacheLineSize <= pool_->data_offset() +
                                                pool_->data_size(),
                "line outside the pool data extent");
}

LineData PaxDevice::device_view(Stripe& s, LineIndex line) {
  if (const HbmCache::Entry* e = s.hbm.lookup(line)) return e->data;
  return pm_->load_line(line);
}

void PaxDevice::evict_victim(Stripe& s,
                             const std::optional<EvictedLine>& victim) {
  if (!victim || !victim->dirty) return;
  if (!record_is_durable(victim->log_record_end)) {
    ++s.stats.forced_log_flushes;
    flush_log();
  }
  write_line_to_pm(s, victim->line, victim->data, victim->log_record_end);
}

LineData PaxDevice::read_line(LineIndex line) {
  check_line_in_data_extent(line);
  auto epoch_lock = epoch_shared();
  Stripe& s = stripe_for(line);
  auto lock = lock_stripe(s);
  ++s.stats.read_reqs;

  if (const HbmCache::Entry* e = s.hbm.lookup(line)) {
    ++s.stats.read_hbm_hits;
    return e->data;
  }
  ++s.stats.read_pm;
  LineData data = pm_->load_line(line);

  // Fill the HBM cache with the clean copy; handle any dirty victim. Pins
  // exist only inside a sync_lines group, so a way is always free.
  std::optional<EvictedLine> victim;
  s.hbm.allocate(line, logger_->durable(), &victim)->data = data;
  evict_victim(s, victim);
  return data;
}

LineData PaxDevice::peek_line(LineIndex line) {
  check_line_in_data_extent(line);
  auto epoch_lock = epoch_shared();
  Stripe& s = stripe_for(line);
  auto lock = lock_stripe(s);
  return device_view(s, line);
}

void PaxDevice::peek_lines(std::span<const LineIndex> lines,
                           std::span<LineData> out) {
  PAX_CHECK(lines.size() == out.size());
  if (lines.empty()) return;
  for (LineIndex line : lines) check_line_in_data_extent(line);
  auto epoch_lock = epoch_shared();

  // One pass per stripe, taking each stripe mutex once. Input batches are
  // small (a page's worth of lines), so the stripes × lines scan is cheap
  // and avoids allocating per-stripe index buckets.
  std::vector<bool> served(stripes_.size(), false);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t stripe = lines[i].value & stripe_mask_;
    if (served[stripe]) continue;
    served[stripe] = true;
    Stripe& s = *stripes_[stripe];
    auto lock = lock_stripe(s);
    for (std::size_t j = i; j < lines.size(); ++j) {
      if ((lines[j].value & stripe_mask_) == stripe) {
        out[j] = device_view(s, lines[j]);
      }
    }
  }
}

Status PaxDevice::sync_lines(std::span<const LineUpdate> updates) {
  if (updates.empty()) return Status::ok();
  for (const LineUpdate& u : updates) check_line_in_data_extent(u.line);
  auto epoch_lock = epoch_shared();
  batch_syncs_.fetch_add(1, std::memory_order_relaxed);
  batch_synced_lines_.fetch_add(updates.size(), std::memory_order_relaxed);

  // Per update of a stripe group: its buffer entry (pinned until filled),
  // the line allocating that entry displaced, and its undo record's end.
  struct Pending {
    HbmCache::Entry* entry = nullptr;
    bool allocated = false;
    bool first_touch = false;
    std::optional<EvictedLine> victim;
    std::uint64_t record_end = 0;
  };

  // One pass per stripe, taking each stripe mutex once (as peek_lines).
  // Scratch is reused across stripe groups.
  std::vector<std::size_t> group;                          // update indices
  std::vector<Pending> pending;                            // parallel
  std::vector<std::pair<LineIndex, LineData>> first_touch;  // pre-images
  std::vector<std::uint64_t> record_ends;
  std::vector<bool> served(stripes_.size(), false);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const std::size_t stripe = updates[i].line.value & stripe_mask_;
    if (served[stripe]) continue;
    served[stripe] = true;
    Stripe& s = *stripes_[stripe];
    auto lock = lock_stripe(s);

    group.clear();
    for (std::size_t j = i; j < updates.size(); ++j) {
      if ((updates[j].line.value & stripe_mask_) == stripe) group.push_back(j);
    }
    s.stats.write_intents += group.size();
    s.stats.host_writebacks += group.size();

    // Pass 1: one buffer probe per update. A miss takes its way now, so
    // the same entry yields the epoch-boundary pre-image of a first-touch
    // line (the device view before the new data is applied) and later
    // receives the update. Displaced lines are written back in pass 3, at
    // the point where buffering the update evicts them.
    pending.assign(group.size(), Pending{});
    first_touch.clear();
    const std::uint64_t durable = logger_->durable();
    for (std::size_t k = 0; k < group.size(); ++k) {
      const LineIndex line = updates[group[k]].line;
      Pending& p = pending[k];
      const std::uint64_t* logged = s.epoch_logged.find(line);
      p.first_touch = logged == nullptr;
      if (logged != nullptr) p.record_end = *logged;
      p.entry = s.hbm.lookup(line);
      if (p.entry == nullptr) {
        p.entry = s.hbm.allocate(line, durable, &p.victim);
        p.allocated = p.entry != nullptr;
        if (p.allocated && p.first_touch) p.entry->data = pm_->load_line(line);
      }
      if (p.first_touch) {
        first_touch.emplace_back(
            line, p.entry != nullptr ? p.entry->data : pm_->load_line(line));
      }
      if (p.entry != nullptr) p.entry->pinned = true;
    }

    // Pass 2: the group's undo records, in one append.
    if (!first_touch.empty()) {
      record_ends.clear();
      const Status st = append_undo_batch(first_touch, &record_ends);
      if (!st.is_ok()) {
        // Nothing of the group is buffered: free the ways pass 1 took and
        // write back what they displaced.
        for (Pending& p : pending) {
          if (p.allocated) {
            s.hbm.drop(*p.entry);
          } else if (p.entry != nullptr) {
            p.entry->pinned = false;
          }
          evict_victim(s, p.victim);
        }
        return st;
      }
      std::size_t next = 0;
      for (std::size_t k = 0; k < group.size(); ++k) {
        if (!pending[k].first_touch) continue;
        // A line named twice keeps its first record (the second is a
        // redundant, harmless copy of the same pre-image).
        pending[k].record_end = *s.epoch_logged
                                     .try_emplace(updates[group[k]].line,
                                                  record_ends[next++])
                                     .first;
      }
      s.stats.first_touch_logs += first_touch.size();
    }

    // Pass 3: buffer every update's new data, gated on its record.
    for (std::size_t k = 0; k < group.size(); ++k) {
      const LineUpdate& u = updates[group[k]];
      Pending& p = pending[k];
      evict_victim(s, p.victim);
      // No entry: every way of the set was pinned in pass 1. An entry can
      // name another line once an earlier update of the same line
      // unpinned it and a fallback insert below re-used its way.
      if (p.entry != nullptr && p.entry->line == u.line) {
        p.entry->data = u.data;
        p.entry->dirty = true;
        p.entry->log_record_end = p.record_end;
        p.entry->pinned = false;
      } else {
        evict_victim(s, s.hbm.insert(u.line, u.data, /*dirty=*/true,
                                     p.record_end, logger_->durable()));
      }
    }
  }
  return Status::ok();
}

Status PaxDevice::write_intent(LineIndex line) {
  check_line_in_data_extent(line);
  auto epoch_lock = epoch_shared();
  Stripe& s = stripe_for(line);
  auto lock = lock_stripe(s);
  ++s.stats.write_intents;

  if (s.epoch_logged.contains(line)) return Status::ok();  // already captured

  // First touch this epoch: the device's current view of the line *is* the
  // epoch-boundary value — everything from prior epochs was written back
  // and committed.
  auto appended = append_undo(line, device_view(s, line));
  if (!appended.ok()) return appended.status();
  ++s.stats.first_touch_logs;
  s.epoch_logged.try_emplace(line, appended.value());
  return Status::ok();
}

Result<std::uint64_t> PaxDevice::append_undo(LineIndex line,
                                             const LineData& old_data) {
  Result<std::uint64_t> appended = [&] {
    if (logger_->ring_enabled()) {
      return logger_->ring_append(epoch_, line, old_data);
    }
    auto log_lock = lock_log();
    log_append_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    return logger_->log_line(epoch_, line, old_data);
  }();
  if (!appended.ok()) flush_log();
  return appended;
}

Status PaxDevice::append_undo_batch(
    std::span<const std::pair<LineIndex, LineData>> items,
    std::vector<std::uint64_t>* ends) {
  Status st = [&] {
    if (logger_->ring_enabled()) {
      // Lock-free hot path: one fetch_add reservation covers the group;
      // the log mutex is never taken on the append path.
      return logger_->ring_append_batch(epoch_, items, ends);
    }
    // One log-mutex acquisition covers the whole group's undo records.
    auto log_lock = lock_log();
    log_append_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    return logger_->log_lines(epoch_, items, ends);
  }();
  if (!st.is_ok()) flush_log();
  return st;
}

LineData PaxDevice::undo_preimage(LineIndex line,
                                  std::uint64_t record_end) const {
  // The pre-image lives in the log at [end - frame, end); frames for line
  // undo records have a fixed size.
  constexpr std::size_t kFrame =
      wal::record_frame_size(sizeof(wal::LineUndoPayload));
  PAX_CHECK(record_end >= kFrame);
  wal::LineUndoPayload payload{};
  pm_->load(pool_->log_offset() + record_end - kFrame +
                sizeof(wal::RecordHeader),
            std::as_writable_bytes(std::span(&payload, 1)));
  PAX_CHECK_MSG(payload.line_index == line.value,
                "undo record offset bookkeeping corrupted");
  return payload.old_data;
}

LineData PaxDevice::committed_view(Stripe& s, LineIndex line) {
  if (const std::uint64_t* end = s.epoch_logged.find(line)) {
    return undo_preimage(line, *end);
  }
  return device_view(s, line);  // unmodified since the last commit
}

LineData PaxDevice::read_committed_line(LineIndex line) {
  check_line_in_data_extent(line);
  auto epoch_lock = epoch_shared();
  Stripe& s = stripe_for(line);
  auto lock = lock_stripe(s);
  return committed_view(s, line);
}

void PaxDevice::read_committed_lines(LineIndex first,
                                     std::span<LineData> out) {
  if (out.empty()) return;
  check_line_in_data_extent(first);
  check_line_in_data_extent(LineIndex{first.value + out.size() - 1});
  auto epoch_lock = epoch_shared();

  // A contiguous line range visits the stripes round-robin: serve all of a
  // stripe's lines under one mutex hold.
  const std::size_t n = stripes_.size();
  for (std::size_t stripe = 0; stripe < n; ++stripe) {
    // First out index whose line lands on this stripe.
    const std::size_t start =
        (stripe + n - (first.value & stripe_mask_)) & stripe_mask_;
    if (start >= out.size()) continue;
    Stripe& s = *stripes_[stripe];
    auto lock = lock_stripe(s);
    for (std::size_t i = start; i < out.size(); i += n) {
      out[i] = committed_view(s, LineIndex{first.value + i});
    }
  }
}

Status PaxDevice::mem_write(LineIndex line, const LineData& data) {
  check_line_in_data_extent(line);
  auto epoch_lock = epoch_shared();
  Stripe& s = stripe_for(line);
  auto lock = lock_stripe(s);
  ++s.stats.mem_writes;

  // One probe: the entry found here supplies the pre-image and takes the
  // data (nothing else can touch the stripe's buffer in between).
  HbmCache::Entry* e = s.hbm.lookup(line);
  std::uint64_t record_end;
  if (const std::uint64_t* logged = s.epoch_logged.find(line)) {
    record_end = *logged;
  } else {
    // First MemWr for this line this epoch: the device view still holds the
    // epoch-boundary value (the incoming data is not yet applied).
    auto appended =
        append_undo(line, e != nullptr ? e->data : pm_->load_line(line));
    if (!appended.ok()) return appended.status();
    ++s.stats.first_touch_logs;
    record_end = appended.value();
    s.epoch_logged.try_emplace(line, record_end);
  }

  std::optional<EvictedLine> victim;
  if (e == nullptr) e = s.hbm.allocate(line, logger_->durable(), &victim);
  e->data = data;
  e->dirty = true;
  e->log_record_end = record_end;
  evict_victim(s, victim);
  return Status::ok();
}

void PaxDevice::writeback_line(LineIndex line, const LineData& data) {
  check_line_in_data_extent(line);
  auto epoch_lock = epoch_shared();
  Stripe& s = stripe_for(line);
  auto lock = lock_stripe(s);
  ++s.stats.host_writebacks;

  const std::uint64_t* record_end = s.epoch_logged.find(line);
  PAX_CHECK_MSG(record_end != nullptr,
                "host wrote back a line it never took write ownership of");

  evict_victim(s, s.hbm.insert(line, data, /*dirty=*/true, *record_end,
                               logger_->durable()));
}

void PaxDevice::write_line_to_pm(Stripe& s, LineIndex line,
                                 const LineData& data,
                                 std::uint64_t record_end) {
  // Core crash-consistency invariant: no new data reaches PM media before
  // the undo record that can roll it back is durable.
  PAX_CHECK_MSG(record_is_durable(record_end),
                "write-back attempted before undo record was durable");
  // This path reached the media only because record_is_durable observed the
  // logger's watermark on this thread — record that gate for the offline
  // happens-before analysis.
  note_writeback(line, record_end, /*gate_observed=*/true);
  pm_->store_line(line, data);
  pm_->flush_line(line);
  ++s.stats.pm_writeback_lines;
}

void PaxDevice::note_writeback(LineIndex line, std::uint64_t record_end,
                               bool gate_observed) const {
  if (auto* chk = pm_->checker()) {
    chk->on_writeback(line.value, logger_->id(), record_end, gate_observed);
  }
}

void PaxDevice::flush_log() {
  auto log_lock = lock_log();
  if (logger_->staged() > logger_->durable()) logger_->flush();
  pm_->drain();
}

void PaxDevice::tick(bool force_flush) {
  auto epoch_lock = epoch_shared();

  const std::uint64_t staged_volatile =
      logger_->staged() - logger_->durable();
  if ((force_flush && staged_volatile > 0) ||
      staged_volatile >= config_.log_flush_batch_bytes) {
    flush_log();
  }

  if (!config_.proactive_writeback) return;

  // Proactively write back buffered dirty lines whose records are durable
  // (§3.3: frees buffer space and shrinks the work left for persist()).
  // Stripes are visited round-robin from a rotating start so concurrent
  // tick()s fan across the device instead of convoying on stripe 0.
  const std::size_t n = stripes_.size();
  const std::size_t start =
      static_cast<std::size_t>(tick_cursor_.fetch_add(1)) % n;
  for (std::size_t i = 0; i < n; ++i) {
    Stripe& s = *stripes_[(start + i) % n];
    auto lock = lock_stripe(s, /*count=*/false);
    s.hbm.for_each_dirty([&](HbmCache::Entry& e) {
      if (!record_is_durable(e.log_record_end)) return;
      write_line_to_pm(s, e.line, e.data, e.log_record_end);
      e.mark_clean();
      ++s.stats.proactive_writebacks;
    });
  }
}

Result<Epoch> PaxDevice::persist(const PullFn& pull) {
  auto epoch_lock = epoch_exclusive();
  persists_.fetch_add(1, std::memory_order_relaxed);

  // Phase 1a. Every undo record of this epoch becomes durable.
  flush_log();

  // Phase 1b. Every line modified this epoch reaches PM once. A line the
  // host still caches is pulled (RdShared: also revokes exclusivity so
  // next-epoch stores re-announce themselves) and written back; its copy
  // supersedes any, possibly stale, buffered one. Otherwise only a dirty
  // buffer entry is written back: an absent or clean entry was stored and
  // flushed by eviction or tick() once its record was durable. The
  // exclusive epoch lock quiesces the data path, so no stripe mutex is
  // needed.
  const bool want_hook = static_cast<bool>(commit_hook_);
  std::vector<std::pair<LineIndex, LineData>> committed_lines;
  if (want_hook) {
    std::size_t total_lines = 0;
    for (const auto& s : stripes_) total_lines += s->epoch_logged.size();
    committed_lines.reserve(total_lines);
  }

  check::Checker* chk = pm_->checker();
  for (auto& sp : stripes_) {
    Stripe& s = *sp;
    s.epoch_logged.for_each([&](LineIndex line, std::uint64_t end) {
      std::optional<LineData> host_copy;
      if (pull) {
        persist_pulls_.fetch_add(1, std::memory_order_relaxed);
        if (chk != nullptr) chk->on_pull_invoke(line.value);
        host_copy = pull(line);
      }
      // One probe: the entry (if buffered) is read or refreshed and then
      // cleaned in place.
      HbmCache::Entry* e = host_copy ? s.hbm.find(line) : s.hbm.lookup(line);
      if (host_copy && e != nullptr) e->data = *host_copy;
      if (host_copy || (e != nullptr && e->dirty)) {
        const LineData& value = host_copy ? *host_copy : e->data;
        note_writeback(line, end);
        pm_->store_line(line, value);
        pm_->flush_line(line);
        ++s.stats.pm_writeback_lines;
        if (e != nullptr) e->mark_clean();
      }
      if (want_hook) {
        committed_lines.emplace_back(
            line, host_copy       ? *host_copy
                  : e != nullptr ? e->data
                                 : pm_->load_line(line));
      }
    });
  }
#ifndef NDEBUG
  // Only lines logged this epoch are ever dirty, and the loop above cleaned
  // each of them: the commit needs no walk over the whole buffer.
  for (auto& sp : stripes_) {
    sp->hbm.for_each_dirty([](HbmCache::Entry&) {
      PAX_UNREACHABLE("a buffered line is dirty without an undo record");
    });
  }
#endif

  // Phase 2. Fence: all data write-back durable before the commit record;
  // then atomically transition the pool to the new snapshot (§3.3).
  pm_->drain();
  const Epoch committed = epoch_;
  pool_->commit_epoch(committed);
  if (want_hook) commit_hook_(committed, committed_lines);

  // New epoch: the log is reusable (every record inside is now stale under
  // the committed epoch cell).
  {
    auto log_lock = lock_log();
    logger_->reset_after_commit();
  }
  for (auto& s : stripes_) s->epoch_logged.clear();
  epoch_ = committed + 1;

  PAX_LOG_DEBUG("persist: committed epoch %llu",
                static_cast<unsigned long long>(committed));
  return committed;
}

void PaxDevice::set_commit_hook(CommitHook hook) {
  auto epoch_lock = epoch_exclusive();
  commit_hook_ = std::move(hook);
}

Epoch PaxDevice::current_epoch() const {
  auto epoch_lock = epoch_shared();
  return epoch_;
}

std::size_t PaxDevice::epoch_logged_lines() const {
  auto epoch_lock = epoch_shared();
  std::size_t total = 0;
  for (const auto& s : stripes_) {
    auto lock = lock_stripe(*s, /*count=*/false);
    total += s->epoch_logged.size();
  }
  return total;
}

std::uint64_t PaxDevice::log_bytes_in_use() const {
  return logger_->staged();
}

UndoLoggerStats PaxDevice::log_stats() const {
  auto log_lock = lock_log();
  return logger_->stats();
}

DeviceStats PaxDevice::stats() const {
  auto epoch_lock = epoch_shared();
  DeviceStats total;
  for (const auto& s : stripes_) {
    auto lock = lock_stripe(*s, /*count=*/false);
    const DeviceStats& st = s->stats;
    total.read_reqs += st.read_reqs;
    total.read_hbm_hits += st.read_hbm_hits;
    total.read_pm += st.read_pm;
    total.write_intents += st.write_intents;
    total.first_touch_logs += st.first_touch_logs;
    total.host_writebacks += st.host_writebacks;
    total.mem_writes += st.mem_writes;
    total.pm_writeback_lines += st.pm_writeback_lines;
    total.proactive_writebacks += st.proactive_writebacks;
    total.forced_log_flushes += st.forced_log_flushes;
  }
  total.persists = persists_.load(std::memory_order_relaxed);
  total.persist_pulls = persist_pulls_.load(std::memory_order_relaxed);
  total.batch_syncs = batch_syncs_.load(std::memory_order_relaxed);
  total.batch_synced_lines =
      batch_synced_lines_.load(std::memory_order_relaxed);
  total.log_append_acquisitions =
      log_append_acquisitions_.load(std::memory_order_relaxed);
  total.log_ring_appends = logger_->ring_appends();
  total.log_ring_stalls = logger_->ring_full_stalls();
  return total;
}

std::vector<StripeStats> PaxDevice::stripe_stats() const {
  auto epoch_lock = epoch_shared();
  std::vector<StripeStats> out;
  out.reserve(stripes_.size());
  for (unsigned i = 0; i < stripes_.size(); ++i) {
    const Stripe& s = *stripes_[i];
    StripeStats st;
    st.stripe = i;
    st.lock_acquisitions =
        s.lock_acquisitions.load(std::memory_order_relaxed);
    st.lock_contended = s.lock_contended.load(std::memory_order_relaxed);
    {
      auto lock = lock_stripe(s, /*count=*/false);
      st.write_intents = s.stats.write_intents;
      st.host_writebacks = s.stats.host_writebacks;
      st.pm_writeback_lines = s.stats.pm_writeback_lines;
      st.epoch_logged_lines = s.epoch_logged.size();
    }
    out.push_back(st);
  }
  return out;
}

void PaxDevice::stripe_lock_totals(std::uint64_t* acquisitions,
                                   std::uint64_t* contended) const {
  std::uint64_t acq = 0, con = 0;
  for (const auto& s : stripes_) {
    acq += s->lock_acquisitions.load(std::memory_order_relaxed);
    con += s->lock_contended.load(std::memory_order_relaxed);
  }
  if (acquisitions != nullptr) *acquisitions = acq;
  if (contended != nullptr) *contended = con;
}

std::size_t PaxDevice::buffered_dirty_lines() const {
  auto epoch_lock = epoch_shared();
  std::size_t total = 0;
  for (const auto& s : stripes_) {
    auto lock = lock_stripe(*s, /*count=*/false);
    s->hbm.for_each_dirty([&](HbmCache::Entry&) { ++total; });
  }
  return total;
}

HbmStats PaxDevice::hbm_stats() const {
  auto epoch_lock = epoch_shared();
  HbmStats total;
  for (const auto& s : stripes_) {
    auto lock = lock_stripe(*s, /*count=*/false);
    total += s->hbm.stats();
  }
  return total;
}

}  // namespace pax::device
