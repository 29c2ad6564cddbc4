#include "pax/check/checker.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace pax::check {
namespace {

std::atomic<std::uint64_t> g_checker_gen{0};

// One binding per thread: the ring this thread last emitted into, valid
// while (owner, gen) match. A thread alternating between live checkers just
// re-binds through the registry.
struct TlsSlot {
  const void* owner = nullptr;
  std::uint64_t gen = 0;
  void* ring = nullptr;
};
thread_local TlsSlot t_slot;

// Events buffered per thread before the producer hands off early.
constexpr std::size_t kRingCapacity = 1024;
// Findings beyond this are counted but not stored.
constexpr std::size_t kMaxViolations = 64;
// Preceding same-line events shown in a violation backtrace.
constexpr std::size_t kHistoryPerLine = 6;
// Global recent-event window backtraces are mined from; older history is
// lost. Per-event cost is one sequential 40-byte write either way.
constexpr std::size_t kRecentEvents = 65536;
static_assert((kRingCapacity & (kRingCapacity - 1)) == 0);
static_assert((kRecentEvents & (kRecentEvents - 1)) == 0);

}  // namespace

std::string describe_lock(LockClass cls, std::uint64_t id) {
  return std::string(lock_class_name(cls)) + " #" + std::to_string(id);
}

const char* event_type_name(EventType t) {
  switch (t) {
    case EventType::kStore: return "STORE";
    case EventType::kFlush: return "FLUSH";
    case EventType::kDrain: return "DRAIN";
    case EventType::kCrash: return "CRASH";
    case EventType::kLogAppend: return "LOG_APPEND";
    case EventType::kLogFlush: return "LOG_FLUSH";
    case EventType::kLogReset: return "LOG_RESET";
    case EventType::kWriteback: return "WRITEBACK";
    case EventType::kEpochCommit: return "EPOCH_COMMIT";
    case EventType::kPullInvoke: return "PULL";
    case EventType::kSyncPush: return "SYNC_PUSH";
    case EventType::kSyncBatchOk: return "SYNC_BATCH_OK";
    case EventType::kSyncBatchFail: return "SYNC_BATCH_FAIL";
    case EventType::kLockAcquire: return "LOCK_ACQ";
    case EventType::kLockRelease: return "LOCK_REL";
    case EventType::kPipelineSeal: return "PIPE_SEAL";
    case EventType::kPipelinePage: return "PIPE_PAGE";
    case EventType::kEpochSubmit: return "EPOCH_SUBMIT";
  }
  return "?";
}

const char* lock_class_name(LockClass c) {
  switch (c) {
    case LockClass::kSyncMu: return "sync-mu";
    case LockClass::kEpochGate: return "epoch-gate";
    case LockClass::kStripe: return "stripe";
    case LockClass::kLogMu: return "log-mu";
  }
  return "?";
}

const char* rule_name(Rule r) {
  switch (r) {
    case Rule::kUnflushedLineAtCommit: return "unflushed-line-at-commit";
    case Rule::kCommitWithoutFence: return "commit-without-fence";
    case Rule::kWritebackBeforeUndoDurable:
      return "writeback-before-undo-durable";
    case Rule::kPushAfterFailedBatch: return "push-after-failed-batch";
    case Rule::kLockOrderInversion: return "lock-order-inversion";
    case Rule::kLockSelfDeadlock: return "lock-self-deadlock";
    case Rule::kDoubleStripeLock: return "double-stripe-lock";
    case Rule::kPullWhileLocked: return "pull-while-locked";
    case Rule::kSealedEpochMutation: return "sealed-epoch-mutation";
    case Rule::kPipelineCommitOrder: return "pipeline-commit-order";
  }
  return "?";
}

namespace {

std::string event_to_string(const Event& e) {
  char buf[160];
  if (e.line != kNoLine) {
    std::snprintf(buf, sizeof(buf),
                  "#%" PRIu64 " t%u %-13s line=%" PRIu64 " a=%" PRIu64
                  " b=%" PRIu64,
                  e.seq, e.tid, event_type_name(e.type), e.line, e.a, e.b);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "#%" PRIu64 " t%u %-13s a=%" PRIu64 " b=%" PRIu64, e.seq,
                  e.tid, event_type_name(e.type), e.a, e.b);
  }
  return buf;
}

}  // namespace

std::string Violation::to_string() const {
  std::string out = std::string("[") + rule_name(rule) + "] " + detail;
  for (const Event& e : backtrace) {
    out += "\n    " + event_to_string(e);
  }
  return out;
}

std::size_t Report::count(Rule r) const {
  std::size_t n = 0;
  for (const Violation& v : violations) {
    if (v.rule == r) ++n;
  }
  return n;
}

std::string Report::to_string() const {
  std::string out;
  if (violations.empty()) {
    out = "paxcheck: clean";
  } else {
    out = "paxcheck: " + std::to_string(violations.size()) + " violation(s)";
    for (const Violation& v : violations) {
      out += "\n  " + v.to_string();
    }
  }
  out += "\n  diagnostics: " + std::to_string(diagnostics.events) +
         " event(s), " + std::to_string(diagnostics.redundant_flushes) +
         " redundant flush(es), " + std::to_string(diagnostics.settles) +
         " settle(s)";
  if (diagnostics.suppressed > 0) {
    out += ", " + std::to_string(diagnostics.suppressed) + " suppressed";
  }
  return out;
}

// --- Ring ----------------------------------------------------------------

// SPSC: the owning thread produces; the engine (under engine_mu_) consumes.
// Publication is the release store of tail; reuse of a slot is fenced by
// the consumer's release store of head.
struct Checker::Ring {
  explicit Ring(std::size_t cap) : buf(cap), mask(cap - 1) {}
  std::vector<Event> buf;
  const std::uint64_t mask;
  alignas(64) std::atomic<std::uint64_t> head{0};
  alignas(64) std::atomic<std::uint64_t> tail{0};
  // Producer-private snapshot of head: refreshed only when the ring looks
  // full, so the common-case emit never touches the consumer's cache line.
  std::uint64_t cached_head = 0;
  std::uint16_t tid = 0;
};

Checker::Checker(const CheckerOptions& options)
    : options_(options), gen_(g_checker_gen.fetch_add(1) + 1) {
  staged_.reserve(4096);
  if (options_.rules) recent_.resize(kRecentEvents);
}

Checker::~Checker() = default;

Checker::Ring* Checker::register_this_thread() {
  std::lock_guard lock(rings_mu_);
  auto [it, inserted] =
      ring_by_thread_.try_emplace(std::this_thread::get_id(), nullptr);
  if (inserted) {
    auto ring = std::make_unique<Ring>(kRingCapacity);
    ring->tid = static_cast<std::uint16_t>(rings_.size());
    it->second = ring.get();
    rings_.push_back(std::move(ring));
  }
  t_slot = {this, gen_, it->second};
  return it->second;
}

void Checker::emit(const Event& e) {
  Ring* ring = t_slot.owner == this && t_slot.gen == gen_
                   ? static_cast<Ring*>(t_slot.ring)
                   : register_this_thread();
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;

  const std::uint64_t tail = ring->tail.load(std::memory_order_relaxed);
  if (tail - ring->cached_head > ring->mask) {
    ring->cached_head = ring->head.load(std::memory_order_acquire);
    if (tail - ring->cached_head > ring->mask) {
      // Full: hand the backlog to the engine early (staged, not replayed —
      // replay happens only at ordering points, where sorting by seq
      // restores the global order).
      std::lock_guard lock(engine_mu_);
      drain_ring_locked(ring);
      ring->cached_head = ring->head.load(std::memory_order_relaxed);
    }
  }
  // Stamped in the slot itself: patching a copy first would make the copy
  // reload bytes just stored, which stalls store forwarding.
  Event& slot = ring->buf[tail & ring->mask];
  slot = e;
  slot.seq = seq;
  slot.tid = ring->tid;
  ring->tail.store(tail + 1, std::memory_order_release);

  switch (e.type) {
    case EventType::kDrain:
    case EventType::kCrash:
    case EventType::kLogFlush:
    case EventType::kEpochCommit:
    case EventType::kSyncBatchOk:
    case EventType::kSyncBatchFail: {
      // Ordering points: everything that must precede this event is
      // published (the emitters held the same synchronization), so replay.
      std::lock_guard lock(engine_mu_);
      settle_locked();
      break;
    }
    default:
      break;
  }
}

void Checker::drain_ring_locked(Ring* ring) {
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = ring->tail.load(std::memory_order_acquire);
  if (head == tail) return;
  // At most two contiguous segments (the ring may wrap once).
  const std::uint64_t lo = head & ring->mask;
  const std::uint64_t hi = tail & ring->mask;
  const Event* buf = ring->buf.data();
  if (lo < hi || hi == 0) {
    const std::uint64_t end = hi == 0 ? ring->buf.size() : hi;
    staged_.insert(staged_.end(), buf + lo, buf + end);
  } else {
    staged_.insert(staged_.end(), buf + lo, buf + ring->buf.size());
    staged_.insert(staged_.end(), buf, buf + hi);
  }
  ring->head.store(tail, std::memory_order_release);
}

void Checker::settle_locked() {
  {
    std::lock_guard lock(rings_mu_);
    for (auto& ring : rings_) drain_ring_locked(ring.get());
  }
  const auto by_seq = [](const Event& a, const Event& b) {
    return a.seq < b.seq;
  };
  // Single-producer stretches stage already-ordered runs; skip the sort.
  if (!std::is_sorted(staged_.begin(), staged_.end(), by_seq)) {
    std::sort(staged_.begin(), staged_.end(), by_seq);
  }
  const std::uint64_t recent_mask = recent_.size() - 1;
  for (const Event& e : staged_) {
    if (options_.record_events) recorded_.push_back(e);
    if (!options_.rules) continue;
    recent_[recent_pos_++ & recent_mask] = e;
    process(e);
  }
  diag_.events += staged_.size();
  staged_.clear();
  ++diag_.settles;
}

void Checker::add_violation(Rule rule, const Event& e,
                            std::uint64_t dedup_key, std::string detail) {
  if (!reported_.emplace(static_cast<std::uint8_t>(rule), dedup_key)
           .second) {
    return;
  }
  if (violations_.size() >= kMaxViolations) {
    ++diag_.suppressed;
    return;
  }
  Violation v;
  v.rule = rule;
  v.line = e.line;
  v.tid = e.tid;
  v.detail = std::move(detail);
  // Mine the recent-event window for the line's preceding events — paid
  // only when a violation actually fires.
  if (e.line != kNoLine) {
    const std::uint64_t mask = recent_.size() - 1;
    const std::uint64_t span =
        std::min<std::uint64_t>(recent_pos_, recent_.size());
    std::vector<Event> newest_first;
    for (std::uint64_t i = 0;
         i < span && newest_first.size() < kHistoryPerLine; ++i) {
      const Event& r = recent_[(recent_pos_ - 1 - i) & mask];
      if (r.line == e.line && r.seq != e.seq) newest_first.push_back(r);
    }
    v.backtrace.assign(newest_first.rbegin(), newest_first.rend());
  }
  v.backtrace.push_back(e);
  violations_.push_back(std::move(v));
}

void Checker::process_lock_acquire(const Event& e) {
  auto& stack = lock_stacks_[e.tid];
  const auto cls = static_cast<LockClass>(e.a);
  const std::uint64_t key = (static_cast<std::uint64_t>(e.tid) << 32) ^
                            (e.a << 16) ^ (e.b & 0xffff);
  for (const Event& held : stack) {
    const auto held_cls = static_cast<LockClass>(held.a);
    if (held_cls == cls && held.b == e.b) {
      add_violation(Rule::kLockSelfDeadlock, e, key,
                    describe_lock(cls, e.b) + " re-acquired while " +
                        describe_lock(held_cls, held.b) +
                        " (seq " + std::to_string(held.seq) +
                        ") is still held by the same thread");
    } else if (held_cls == cls && cls == LockClass::kStripe) {
      add_violation(Rule::kDoubleStripeLock, e, key,
                    describe_lock(cls, e.b) + " acquired while " +
                        describe_lock(held_cls, held.b) +
                        " is held (at most one stripe at a time)");
    } else if (static_cast<int>(held_cls) > static_cast<int>(cls)) {
      add_violation(Rule::kLockOrderInversion, e, key,
                    describe_lock(cls, e.b) + " acquired while holding " +
                        describe_lock(held_cls, held.b) +
                        " (required order: sync-mu < epoch-gate < stripe "
                        "< log-mu)");
    }
  }
  stack.push_back(e);
}

void Checker::process(const Event& e) {
  switch (e.type) {
    case EventType::kStore: {
      pending_lines_.try_emplace(LineIndex{e.line});
      break;
    }
    case EventType::kFlush: {
      if (e.flags & kFlagEmptyFlush) {
        ++diag_.redundant_flushes;
      } else {
        ++flushes_since_drain_;
      }
      pending_lines_.erase(LineIndex{e.line});
      break;
    }
    case EventType::kDrain:
      flushes_since_drain_ = 0;
      break;
    case EventType::kCrash:
      // Power loss resolves the pending overlay; in-flight sync state and
      // log watermarks restart from scratch with the next attach.
      pending_lines_.clear();
      flushes_since_drain_ = 0;
      log_durable_.clear();
      pipeline_fifo_.clear();
      submitter_.clear();
      break;
    case EventType::kLogAppend:
      break;
    case EventType::kLogFlush:
      log_durable_[e.a] = e.b;
      break;
    case EventType::kLogReset:
      log_durable_[e.a] = 0;
      break;
    case EventType::kWriteback: {
      const auto it = log_durable_.find(e.a);
      const std::uint64_t durable =
          it == log_durable_.end() ? 0 : it->second;
      if (e.b > durable) {
        add_violation(
            Rule::kWritebackBeforeUndoDurable, e, e.line,
            "line " + std::to_string(e.line) +
                " written back while its undo record (end " +
                std::to_string(e.b) + ") is beyond logger " +
                std::to_string(e.a) + "'s durable watermark " +
                std::to_string(durable));
      }
      break;
    }
    case EventType::kEpochCommit: {
      // The device commits on the thread that submitted the epoch; a
      // commit nobody submitted (device-level callers) belongs to runtime 0.
      std::uint32_t runtime = 0;
      if (const auto it = submitter_.find(e.tid); it != submitter_.end()) {
        runtime = it->second;
        submitter_.erase(it);
      }
      auto& fifo = pipeline_fifo_[runtime];
      if (!fifo.empty()) {
        if (fifo.front().epoch == e.a) {
          fifo.erase(fifo.begin());
        } else {
          add_violation(Rule::kPipelineCommitOrder, e, e.a,
                        "epoch " + std::to_string(e.a) +
                            " committed while pipeline snapshot for epoch " +
                            std::to_string(fifo.front().epoch) +
                            " is at the head of the drain queue");
        }
      }
      if (!pending_lines_.empty()) {
        std::vector<std::uint64_t> pending;
        pending.reserve(pending_lines_.size());
        pending_lines_.for_each(
            [&](LineIndex line, bool) { pending.push_back(line.value); });
        std::sort(pending.begin(), pending.end());
        for (std::uint64_t line : pending) {
          Event scoped = e;
          scoped.line = line;
          add_violation(Rule::kUnflushedLineAtCommit, scoped, line,
                        "line " + std::to_string(line) +
                            " stored but not flushed when epoch " +
                            std::to_string(e.a) + " committed");
        }
      }
      if (flushes_since_drain_ > 0) {
        add_violation(Rule::kCommitWithoutFence, e, e.a,
                      std::to_string(flushes_since_drain_) +
                          " flush(es) not covered by a drain when epoch " +
                          std::to_string(e.a) + " committed");
      }
      break;
    }
    case EventType::kPullInvoke: {
      const auto it = lock_stacks_.find(e.tid);
      if (it == lock_stacks_.end()) break;
      for (const Event& held : it->second) {
        const auto held_cls = static_cast<LockClass>(held.a);
        if (held_cls == LockClass::kStripe ||
            held_cls == LockClass::kLogMu) {
          add_violation(Rule::kPullWhileLocked, e, e.tid,
                        "host pull invoked while holding " +
                            describe_lock(held_cls, held.b) +
                            " — the pull may block on a thread waiting "
                            "for that lock");
          break;
        }
      }
      break;
    }
    case EventType::kSyncPush: {
      // While snapshots are outstanding, the drain worker is the only sync
      // producer and must push only the head snapshot's pages — anything
      // else is live next-epoch mutation bleeding into the sealed epoch.
      const auto& fifo = pipeline_fifo_[e.runtime];
      if (!fifo.empty() && fifo.front().pages.count(e.line >> 6) == 0) {
        add_violation(Rule::kSealedEpochMutation, e, e.line,
                      "line " + std::to_string(e.line) +
                          " pushed while sealed epoch " +
                          std::to_string(fifo.front().epoch) +
                          "'s snapshot (which does not cover it) heads the "
                          "drain queue");
      }
      if (const auto it = failed_batch_seq_.find(e.runtime);
          it != failed_batch_seq_.end()) {
        add_violation(Rule::kPushAfterFailedBatch, e, e.line,
                      "line " + std::to_string(e.line) +
                          " pushed by runtime " + std::to_string(e.runtime) +
                          " after its sync_lines batch failed at #" +
                          std::to_string(it->second));
      }
      break;
    }
    case EventType::kEpochSubmit: {
      submitter_[e.tid] = e.runtime;
      if (const auto it = failed_batch_seq_.find(e.runtime);
          it != failed_batch_seq_.end()) {
        add_violation(Rule::kPushAfterFailedBatch, e, e.a,
                      "epoch " + std::to_string(e.a) +
                          " submitted for commit by runtime " +
                          std::to_string(e.runtime) +
                          " after its sync_lines batch failed at #" +
                          std::to_string(it->second));
      }
      break;
    }
    case EventType::kSyncBatchFail:
      // The first failure is sticky for the runtime (see the failure model
      // in runtime.hpp): nothing may be pushed or submitted after it.
      failed_batch_seq_.try_emplace(e.runtime, e.seq);
      break;
    case EventType::kSyncBatchOk:
      break;
    case EventType::kPipelineSeal: {
      pipeline_fifo_[e.runtime].push_back({e.a, {}});
      break;
    }
    case EventType::kPipelinePage: {
      // Pages arrive right after their seal event; match from the back.
      auto& fifo = pipeline_fifo_[e.runtime];
      for (auto it = fifo.rbegin(); it != fifo.rend(); ++it) {
        if (it->epoch == e.a) {
          it->pages.insert(e.line >> 6);
          break;
        }
      }
      break;
    }
    case EventType::kLockAcquire:
      process_lock_acquire(e);
      break;
    case EventType::kLockRelease: {
      auto& stack = lock_stacks_[e.tid];
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (it->a == e.a && it->b == e.b) {
          stack.erase(std::next(it).base());
          break;
        }
      }
      break;
    }
  }
}

Report Checker::snapshot_report_locked() const {
  Report r;
  r.violations = violations_;
  r.diagnostics = diag_;
  return r;
}

Report Checker::report() {
  std::lock_guard lock(engine_mu_);
  settle_locked();
  return snapshot_report_locked();
}

Report Checker::replay(std::span<const Event> events) {
  std::lock_guard lock(engine_mu_);
  // Anything already emitted live settles first, then the trace is staged
  // verbatim (no re-ticketing) and settled in its recorded seq order.
  settle_locked();
  staged_.insert(staged_.end(), events.begin(), events.end());
  std::uint64_t max_seq = seq_.load(std::memory_order_relaxed);
  for (const Event& e : events) max_seq = std::max(max_seq, e.seq);
  settle_locked();
  // Live events emitted after the replay must order after the trace.
  seq_.store(max_seq, std::memory_order_relaxed);
  return snapshot_report_locked();
}

std::vector<Event> Checker::recorded_events() {
  std::lock_guard lock(engine_mu_);
  settle_locked();
  // A thread can take its seq before another thread's ordering point and
  // publish the event after that point settled (persist_async() sealing
  // while the drain worker commits), so the engine processed it one settle
  // late. Traces are in sequence order.
  const auto by_seq = [](const Event& a, const Event& b) {
    return a.seq < b.seq;
  };
  if (!std::is_sorted(recorded_.begin(), recorded_.end(), by_seq)) {
    std::stable_sort(recorded_.begin(), recorded_.end(), by_seq);
  }
  return recorded_;
}

// --- Emission helpers ----------------------------------------------------

void Checker::on_store(std::uint64_t line) {
  Event e;
  e.type = EventType::kStore;
  e.line = line;
  emit(e);
}

void Checker::on_flush(std::uint64_t line, bool empty) {
  Event e;
  e.type = EventType::kFlush;
  e.line = line;
  if (empty) e.flags |= kFlagEmptyFlush;
  emit(e);
}

void Checker::on_drain() {
  Event e;
  e.type = EventType::kDrain;
  emit(e);
}

void Checker::on_crash() {
  Event e;
  e.type = EventType::kCrash;
  emit(e);
}

void Checker::on_log_append(std::uint64_t logger, std::uint64_t line,
                            std::uint64_t end) {
  Event e;
  e.type = EventType::kLogAppend;
  e.line = line;
  e.a = logger;
  e.b = end;
  emit(e);
}

void Checker::on_log_flush(std::uint64_t logger, std::uint64_t durable) {
  Event e;
  e.type = EventType::kLogFlush;
  e.a = logger;
  e.b = durable;
  emit(e);
}

void Checker::on_log_reset(std::uint64_t logger) {
  Event e;
  e.type = EventType::kLogReset;
  e.a = logger;
  emit(e);
}

void Checker::on_writeback(std::uint64_t line, std::uint64_t logger,
                           std::uint64_t end, bool gate_observed) {
  Event e;
  e.type = EventType::kWriteback;
  e.line = line;
  e.a = logger;
  e.b = end;
  if (gate_observed) e.flags |= kFlagGateObserved;
  emit(e);
}

void Checker::on_epoch_commit(std::uint64_t epoch) {
  Event e;
  e.type = EventType::kEpochCommit;
  e.a = epoch;
  emit(e);
}

void Checker::on_pull_invoke(std::uint64_t line) {
  Event e;
  e.type = EventType::kPullInvoke;
  e.line = line;
  emit(e);
}

void Checker::on_sync_push(std::uint32_t runtime, std::uint64_t line) {
  Event e;
  e.type = EventType::kSyncPush;
  e.line = line;
  e.runtime = runtime;
  emit(e);
}

void Checker::on_sync_batch_ok(std::uint32_t runtime) {
  Event e;
  e.type = EventType::kSyncBatchOk;
  e.runtime = runtime;
  emit(e);
}

void Checker::on_sync_batch_fail(std::uint32_t runtime) {
  Event e;
  e.type = EventType::kSyncBatchFail;
  e.runtime = runtime;
  emit(e);
}

void Checker::on_epoch_submit(std::uint32_t runtime, std::uint64_t epoch) {
  Event e;
  e.type = EventType::kEpochSubmit;
  e.a = epoch;
  e.runtime = runtime;
  emit(e);
}

void Checker::on_pipeline_seal(std::uint32_t runtime, std::uint64_t epoch,
                               std::span<const std::uint64_t> page_lines) {
  Event seal;
  seal.type = EventType::kPipelineSeal;
  seal.a = epoch;
  seal.b = page_lines.size();
  seal.runtime = runtime;
  emit(seal);
  for (std::uint64_t line : page_lines) {
    Event page;
    page.type = EventType::kPipelinePage;
    page.line = line;
    page.a = epoch;
    page.runtime = runtime;
    emit(page);
  }
}

void Checker::on_lock_acquire(LockClass cls, std::uint32_t id, bool shared) {
  Event e;
  e.type = EventType::kLockAcquire;
  e.a = static_cast<std::uint64_t>(cls);
  e.b = id;
  if (shared) e.flags |= kFlagSharedLock;
  emit(e);
}

void Checker::on_lock_release(LockClass cls, std::uint32_t id) {
  Event e;
  e.type = EventType::kLockRelease;
  e.a = static_cast<std::uint64_t>(cls);
  e.b = id;
  emit(e);
}

// --- LockToken -----------------------------------------------------------

LockToken::LockToken(Checker* checker, LockClass cls, std::uint32_t id,
                     bool shared)
    : checker_(checker), cls_(cls), id_(id) {
  if (checker_ != nullptr) checker_->on_lock_acquire(cls_, id_, shared);
}

LockToken::LockToken(LockToken&& other) noexcept
    : checker_(other.checker_), cls_(other.cls_), id_(other.id_) {
  other.checker_ = nullptr;
}

LockToken& LockToken::operator=(LockToken&& other) noexcept {
  if (this != &other) {
    if (checker_ != nullptr) checker_->on_lock_release(cls_, id_);
    checker_ = other.checker_;
    cls_ = other.cls_;
    id_ = other.id_;
    other.checker_ = nullptr;
  }
  return *this;
}

LockToken::~LockToken() {
  if (checker_ != nullptr) checker_->on_lock_release(cls_, id_);
}

}  // namespace pax::check
