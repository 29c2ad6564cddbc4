#include "pax/pmem/pmem_device.hpp"

#include <algorithm>
#include <cstring>

#include "pax/check/checker.hpp"
#include "pax/common/check.hpp"
#include "pax/common/rng.hpp"

namespace pax::pmem {
namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;

// Per-line crash lottery. Every draw for a line comes from a generator
// seeded by (seed, line index) alone, so whether the line survives — and
// which of its 8-byte words tore — never depends on how many other pending
// lines exist or in what order a container iterates them. The same seed
// therefore resolves the same post-crash state across shard layouts,
// stripe counts, and offline CrashCut::resolve replays.
Xoshiro256 crash_line_rng(std::uint64_t seed, std::uint64_t line) {
  SplitMix64 mix(line + 0x9e3779b97f4a7c15ULL);
  return Xoshiro256(seed ^ mix.next());
}

// Resolves one pending line onto `dst` (its media bytes). Returns the
// number of media bytes written (0 when the line is dropped).
std::size_t resolve_crash_line(const CrashConfig& config, std::uint64_t line,
                               const LineData& data, std::byte* dst) {
  Xoshiro256 rng = crash_line_rng(config.seed, line);
  if (!rng.next_bool(config.line_survival_probability)) return 0;
  if (!config.tear_within_lines) {
    std::memcpy(dst, data.bytes.data(), kCacheLineSize);
    return kCacheLineSize;
  }
  // Torn line: each 8-byte word (the x86 power-fail atomicity unit)
  // independently made it out or did not.
  std::size_t written = 0;
  for (std::size_t w = 0; w < kCacheLineSize; w += 8) {
    if (rng.next_bool(0.5)) {
      std::memcpy(dst + w, data.bytes.data() + w, 8);
      written += 8;
    }
  }
  return written;
}

}  // namespace

std::vector<std::byte> CrashCut::resolve(const CrashConfig& config) const {
  std::vector<std::byte> image = media;
  for (const auto& [line, data] : pending) {
    resolve_crash_line(config, line.value, data,
                       image.data() + line.byte_offset());
  }
  return image;
}

std::unique_ptr<PmemDevice> PmemDevice::create_in_memory(std::size_t bytes) {
  PAX_CHECK_MSG(bytes % kCacheLineSize == 0,
                "PM size must be line-aligned");
  // calloc: glibc serves a block above its mmap threshold (32 MiB at most)
  // from a fresh mapping, zero without a fill and unbacked until written.
  std::unique_ptr<PmemDevice> dev(new PmemDevice(bytes, 0));
  dev->zeroed_media_.reset(static_cast<std::byte*>(std::calloc(bytes, 1)));
  PAX_CHECK_MSG(dev->zeroed_media_ != nullptr, "PM media allocation failed");
  dev->base_ = dev->zeroed_media_.get();
  return dev;
}

std::unique_ptr<PmemDevice> PmemDevice::create_in_memory_from(
    std::vector<std::byte> media) {
  PAX_CHECK_MSG(media.size() % kCacheLineSize == 0,
                "PM size must be line-aligned");
  std::unique_ptr<PmemDevice> dev(
      new PmemDevice(media.size(), media.size()));
  dev->image_media_ = std::move(media);
  dev->base_ = dev->image_media_.data();
  return dev;
}

Result<std::unique_ptr<PmemDevice>> PmemDevice::open_file(
    const std::string& path, std::size_t bytes, bool create) {
  if (bytes % kCacheLineSize != 0) {
    return invalid_argument("PM size must be line-aligned");
  }
  auto file = MmapFile::open(path, bytes, create);
  if (!file.ok()) return file.status();
  std::unique_ptr<PmemDevice> dev(new PmemDevice(bytes, bytes));
  dev->file_ = std::move(file).value();
  dev->base_ = dev->file_->data().data();
  return dev;
}

auto PmemDevice::lock_all_shards() const -> AllShardLocks {
  AllShardLocks locks;
  for (std::size_t i = 0; i < kShards; ++i) {
    locks[i] = std::unique_lock(shards_[i].mu);
  }
  return locks;
}

void PmemDevice::note_written(std::size_t end) {
  std::size_t cur = written_end_.load(kRelaxed);
  while (cur < end &&
         !written_end_.compare_exchange_weak(cur, end, kRelaxed)) {
  }
}

void PmemDevice::store(PoolOffset off, std::span<const std::byte> data) {
  PAX_CHECK(off + data.size() <= size_);
  note_written(off + data.size());
  if (data.empty()) {
    Shard& shard = shard_for(LineIndex::containing(off));
    std::lock_guard lock(shard.mu);
    ++shard.stats.stores;
    return;
  }

  // Split the store across the lines it touches; each touched line becomes
  // (or stays) pending with its updated contents. Lines are handled one at
  // a time under their own shard lock — stores are not atomic across lines
  // (matching real hardware, where only 8-byte-aligned writes are).
  std::size_t done = 0;
  while (done < data.size()) {
    const PoolOffset cur = off + done;
    const LineIndex line = LineIndex::containing(cur);
    const std::size_t in_line = cur % kCacheLineSize;
    const std::size_t n =
        std::min(kCacheLineSize - in_line, data.size() - done);

    {
      Shard& shard = shard_for(line);
      std::lock_guard lock(shard.mu);
      if (done == 0) ++shard.stats.stores;
      shard.stats.bytes_stored += n;
      auto [pending, first] = shard.pending.try_emplace(line);
      if (first) {
        // First dirtying of this line: seed the pending copy from media.
        std::memcpy(pending->bytes.data(),
                    media().data() + line.byte_offset(), kCacheLineSize);
      }
      std::memcpy(pending->bytes.data() + in_line, data.data() + done, n);
      // Emitted under the shard mutex so the checker's sequence numbers
      // respect the real per-line store/flush order.
      if (auto* chk = checker()) chk->on_store(line.value);
    }
    bump_crash_event();
    done += n;
  }
}

void PmemDevice::load(PoolOffset off, std::span<std::byte> out) const {
  PAX_CHECK(off + out.size() <= size_);
  if (out.empty() || out.size() >= kBulkLoadBytes) {
    // One consistent cut, as crash() takes it: the media range, then every
    // pending line that overlaps it on top.
    const auto locks = lock_all_shards();
    ++shard_for(LineIndex::containing(off)).stats.loads;
    std::copy_n(media().data() + off, out.size(), out.data());
    for (const auto& shard : shards_) {
      shard.pending.for_each([&](LineIndex line, const LineData& data) {
        const PoolOffset lo = std::max<PoolOffset>(line.byte_offset(), off);
        const PoolOffset hi = std::min<PoolOffset>(
            line.byte_offset() + kCacheLineSize, off + out.size());
        if (lo >= hi) return;
        std::memcpy(out.data() + (lo - off),
                    data.bytes.data() + (lo - line.byte_offset()), hi - lo);
      });
    }
    return;
  }

  std::size_t done = 0;
  while (done < out.size()) {
    const PoolOffset cur = off + done;
    const LineIndex line = LineIndex::containing(cur);
    const std::size_t in_line = cur % kCacheLineSize;
    const std::size_t n =
        std::min(kCacheLineSize - in_line, out.size() - done);

    Shard& shard = shard_for(line);
    std::lock_guard lock(shard.mu);
    if (done == 0) ++shard.stats.loads;
    const LineData* pending = shard.pending.find(line);
    const std::byte* src =
        pending != nullptr ? pending->bytes.data() + in_line
                           : media().data() + line.byte_offset() + in_line;
    std::memcpy(out.data() + done, src, n);
    done += n;
  }
}

void PmemDevice::store_line(LineIndex line, const LineData& data) {
  PAX_CHECK(line.byte_offset() + kCacheLineSize <= size_);
  note_written(line.byte_offset() + kCacheLineSize);
  {
    Shard& shard = shard_for(line);
    std::lock_guard lock(shard.mu);
    ++shard.stats.stores;
    shard.stats.bytes_stored += kCacheLineSize;
    *shard.pending.try_emplace(line).first = data;
    if (auto* chk = checker()) chk->on_store(line.value);
  }
  bump_crash_event();
}

LineData PmemDevice::load_line(LineIndex line) const {
  PAX_CHECK(line.byte_offset() + kCacheLineSize <= size_);
  Shard& shard = shard_for(line);
  std::lock_guard lock(shard.mu);
  ++shard.stats.loads;
  if (const LineData* pending = shard.pending.find(line)) return *pending;
  LineData d;
  std::memcpy(d.bytes.data(), media().data() + line.byte_offset(),
              kCacheLineSize);
  return d;
}

void PmemDevice::store_u64(PoolOffset off, std::uint64_t value) {
  PAX_CHECK_MSG(off % 8 == 0, "u64 stores must be 8-byte aligned");
  store(off, std::as_bytes(std::span(&value, 1)));
}

std::uint64_t PmemDevice::load_u64(PoolOffset off) const {
  PAX_CHECK_MSG(off % 8 == 0, "u64 loads must be 8-byte aligned");
  std::uint64_t value = 0;
  load(off, std::as_writable_bytes(std::span(&value, 1)));
  return value;
}

void PmemDevice::flush_line_locked(Shard& shard, LineIndex line) {
  const LineData* pending = shard.pending.find(line);
  if (pending == nullptr) {
    ++shard.stats.empty_flushes;
    if (auto* chk = checker()) chk->on_flush(line.value, /*empty=*/true);
    return;
  }
  std::memcpy(media().data() + line.byte_offset(), pending->bytes.data(),
              kCacheLineSize);
  shard.pending.erase(line);
  ++shard.stats.line_flushes;
  shard.stats.media_bytes_written += kCacheLineSize;
  // XPLine accounting: a flush touches one 256 B internal block; flushes to
  // the same block combine in the XPBuffer until the next drain. Block and
  // line live in the same shard (sharding is by block), so the window needs
  // no extra lock.
  if (shard.xpline_window.try_emplace(LineIndex{line.value / kLinesPerXpline})
          .second) {
    ++shard.stats.xpline_blocks_written;
  }
  if (auto* chk = checker()) chk->on_flush(line.value, /*empty=*/false);
}

void PmemDevice::flush_line(LineIndex line) {
  PAX_CHECK(line.byte_offset() + kCacheLineSize <= size_);
  // Repair interception first: a hoisted log flush must reach the media
  // (and the event stream) before the data flush it guards. The shim
  // no-ops re-entrant calls, so its own flush_line calls pass through.
  if (auto* shim = repair_shim()) shim->before_flush(*this, line);
  {
    Shard& shard = shard_for(line);
    std::lock_guard lock(shard.mu);
    flush_line_locked(shard, line);
  }
  bump_crash_event();
}

void PmemDevice::flush_range(PoolOffset off, std::size_t len) {
  PAX_CHECK(off + len <= size_);
  if (len == 0) return;
  const LineIndex first = LineIndex::containing(off);
  const LineIndex last = LineIndex::containing(off + len - 1);
  for (std::uint64_t l = first.value; l <= last.value; ++l) {
    flush_line(LineIndex{l});
  }
}

void PmemDevice::drain() {
  drains_.fetch_add(1, kRelaxed);
  // The XPBuffer write-combining window closes on every shard.
  for (auto& shard : shards_) {
    std::lock_guard lock(shard.mu);
    shard.xpline_window.clear();
  }
  // After the sweep: every flush whose shard lock this drain passed through
  // is sequenced before the drain event.
  if (auto* chk = checker()) chk->on_drain();
  bump_crash_event();
}

void PmemDevice::atomic_durable_store_u64(PoolOffset off,
                                          std::uint64_t value) {
  store_u64(off, value);
  flush_line(LineIndex::containing(off));
  drain();
}

void PmemDevice::crash(const CrashConfig& config) {
  // Stop-the-world: hold every shard while the lottery runs so the torn
  // state is a consistent cut of the overlay.
  const auto locks = lock_all_shards();
  for (auto& shard : shards_) {
    shard.pending.for_each([&](LineIndex line, const LineData& data) {
      shard.stats.media_bytes_written += resolve_crash_line(
          config, line.value, data, media().data() + line.byte_offset());
    });
    shard.pending.clear();
  }
  if (auto* chk = checker()) chk->on_crash();
}

void PmemDevice::bump_crash_event() {
  const std::uint64_t n = crash_events_.fetch_add(1, kRelaxed) + 1;
  if (n == crash_arm_.load(kRelaxed)) capture_crash_cut(n);
}

void PmemDevice::arm_crash_point(std::uint64_t after_events) {
  PAX_CHECK_MSG(after_events > crash_events_.load(kRelaxed),
                "crash point already passed");
  std::lock_guard lock(crash_cut_mu_);
  crash_cut_.reset();
  crash_arm_.store(after_events, kRelaxed);
}

void PmemDevice::capture_crash_cut(std::uint64_t at_event) {
  // Stop-the-world copy under every shard lock (same discipline as
  // crash()). The triggering operation released its shard lock before
  // bump_crash_event, so no lock is held twice.
  const auto locks = lock_all_shards();
  CrashCut cut;
  cut.after_events = at_event;
  cut.media.assign(media().begin(), media().end());
  for (const auto& shard : shards_) {
    shard.pending.for_each([&](LineIndex line, const LineData& data) {
      cut.pending.emplace_back(line, data);
    });
  }
  std::sort(cut.pending.begin(), cut.pending.end(),
            [](const auto& a, const auto& b) {
              return a.first.value < b.first.value;
            });
  std::lock_guard lock(crash_cut_mu_);
  crash_cut_ = std::move(cut);
  crash_arm_.store(0, kRelaxed);
}

std::optional<CrashCut> PmemDevice::take_crash_cut() {
  std::lock_guard lock(crash_cut_mu_);
  std::optional<CrashCut> out = std::move(crash_cut_);
  crash_cut_.reset();
  return out;
}

void PmemDevice::note_epoch_commit(std::uint64_t epoch) {
  // Repair interception: inserted flush+drain actions land here, strictly
  // before the kEpochCommit event and the epoch-cell store that follows.
  if (auto* shim = repair_shim()) shim->before_epoch_commit(*this, epoch);
  if (auto* chk = checker()) chk->on_epoch_commit(epoch);
}

std::size_t PmemDevice::pending_line_count() const {
  std::size_t total = 0;
  for (auto& shard : shards_) {
    std::lock_guard lock(shard.mu);
    total += shard.pending.size();
  }
  return total;
}

LineData PmemDevice::durable_line(LineIndex line) const {
  PAX_CHECK(line.byte_offset() + kCacheLineSize <= size_);
  Shard& shard = shard_for(line);
  std::lock_guard lock(shard.mu);
  LineData d;
  std::memcpy(d.bytes.data(), media().data() + line.byte_offset(),
              kCacheLineSize);
  return d;
}

void PmemDevice::read_durable(PoolOffset off, std::span<std::byte> out) const {
  PAX_CHECK(off + out.size() <= size_);
  std::memcpy(out.data(), media().data() + off, out.size());
}

PmemStats PmemDevice::stats() const {
  PmemStats out;
  for (auto& shard : shards_) {
    std::lock_guard lock(shard.mu);
    const PmemStats& st = shard.stats;
    out.stores += st.stores;
    out.bytes_stored += st.bytes_stored;
    out.loads += st.loads;
    out.line_flushes += st.line_flushes;
    out.empty_flushes += st.empty_flushes;
    out.media_bytes_written += st.media_bytes_written;
    out.xpline_blocks_written += st.xpline_blocks_written;
  }
  out.drains = drains_.load(kRelaxed);
  return out;
}

void PmemDevice::reset_stats() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard.mu);
    shard.stats = PmemStats{};
  }
  drains_.store(0, kRelaxed);
}

}  // namespace pax::pmem
