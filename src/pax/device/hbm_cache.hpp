// The PAX device's on-board HBM buffer (Figure 1, "HBM Cache").
//
// It plays both roles the paper gives it: a read cache of PM lines, and the
// buffer of host-modified lines awaiting write-back. Entries are organized
// set-associatively with per-set LRU. The eviction policy is the one §3.3
// describes: prefer clean victims, then dirty victims whose undo-log record
// is already durable (they can be written back without waiting), and only
// as a last resort a dirty victim whose record still needs a log flush —
// the "stall" case the device tries to minimize. Within a class the least
// recently used line goes. A pure-LRU mode exists for the eviction-policy
// ablation (Abl 5 in DESIGN.md).
//
// Lookups hand back the entry itself, so a device call searches a line's
// set once and then reads, fills, dirties or cleans the entry in place.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "pax/common/types.hpp"

namespace pax::device {

struct HbmConfig {
  std::size_t capacity_lines = 4096;
  unsigned ways = 8;
  /// §3.3 durability-aware policy on; false = ignore durability (ablation).
  bool prefer_durable_eviction = true;
};

struct HbmStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t clean_evictions = 0;
  std::uint64_t durable_dirty_evictions = 0;  // record already durable
  std::uint64_t stall_evictions = 0;          // record needed a forced flush
  /// Set tag searches (find/lookup/insert); allocate() searches no tags.
  std::uint64_t probes = 0;
};

/// Aggregation across the striped device's per-stripe caches.
inline HbmStats& operator+=(HbmStats& a, const HbmStats& b) {
  a.hits += b.hits;
  a.misses += b.misses;
  a.insertions += b.insertions;
  a.evictions += b.evictions;
  a.clean_evictions += b.clean_evictions;
  a.durable_dirty_evictions += b.durable_dirty_evictions;
  a.stall_evictions += b.stall_evictions;
  a.probes += b.probes;
  return a;
}

/// A line leaving the buffer; the device decides what to do with it.
struct EvictedLine {
  LineIndex line;
  LineData data;
  bool dirty = false;
  std::uint64_t log_record_end = 0;  // durability watermark of its undo record
};

class HbmCache {
 public:
  /// One buffered line. Holders of an Entry* (find/lookup/allocate) update
  /// `data`, `dirty` and `log_record_end` in place; the pointer is valid
  /// until the next allocate/insert into the same set.
  struct Entry {
    LineData data;
    LineIndex line;
    bool dirty = false;
    /// Held by an in-progress device call: never chosen as a victim.
    bool pinned = false;
    std::uint64_t log_record_end = 0;
    std::uint64_t lru_tick = 0;

    void mark_clean() {
      dirty = false;
      log_record_end = 0;
    }
  };

  explicit HbmCache(const HbmConfig& config);

  /// Searches the line's set; no recency or hit/miss accounting.
  Entry* find(LineIndex line);

  /// find() that counts a hit or miss and refreshes recency on a hit.
  Entry* lookup(LineIndex line);

  /// Installs `line`, which the caller found absent, in a free way or the
  /// eviction policy's victim (never a pinned way; the displaced line
  /// goes to `victim`). The entry is clean with unspecified data. Returns
  /// nullptr, changing nothing, when every way of the set is pinned.
  Entry* allocate(LineIndex line, std::uint64_t durable_log_offset,
                  std::optional<EvictedLine>* victim);

  /// Inserts or updates a line. `durable_log_offset` is the log's current
  /// durability watermark, used by victim selection. Returns the evicted
  /// line if the target set was full with other lines.
  std::optional<EvictedLine> insert(LineIndex line, const LineData& data,
                                    bool dirty, std::uint64_t log_record_end,
                                    std::uint64_t durable_log_offset);

  /// Removes a buffered line (frees its way).
  void drop(Entry& entry);

  /// Invokes fn(Entry&) on each dirty entry (proactive write-back, dirty
  /// audits). fn may update the entry in place but must not insert or drop.
  void for_each_dirty(const std::function<void(Entry&)>& fn);

  std::size_t size() const { return live_; }
  std::size_t capacity() const { return entries_.size(); }
  const HbmStats& stats() const { return stats_; }

 private:
  // A line's tag is its index; ~0 marks a free way. Tags live apart from
  // the entries so a probe reads one contiguous run of `ways_` words.
  static constexpr std::uint64_t kFreeTag = ~std::uint64_t{0};

  std::size_t set_of(LineIndex line) const {
    return std::hash<LineIndex>{}(line) & (num_sets_ - 1);
  }

  // Victim selection; returns the way index within `set`, or -1 if every
  // way is pinned.
  int pick_victim_lru(std::size_t set, std::uint64_t durable_log_offset);

  unsigned ways_;
  bool prefer_durable_;
  std::size_t num_sets_;
  std::vector<std::uint64_t> tags_;   // set-major, ways_ per set
  std::vector<Entry> entries_;        // parallel to tags_
  std::uint64_t tick_ = 0;
  std::size_t live_ = 0;
  HbmStats stats_;
};

}  // namespace pax::device
