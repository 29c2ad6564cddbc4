#include "pax/device/hbm_cache.hpp"

#include "pax/common/check.hpp"

namespace pax::device {
namespace {

std::size_t pick_set_count(std::size_t capacity_lines, unsigned ways) {
  std::size_t sets = capacity_lines / ways;
  if (sets == 0) sets = 1;
  // Round down to a power of two so set indexing is a mask of mixed bits.
  std::size_t pow2 = 1;
  while (pow2 * 2 <= sets) pow2 *= 2;
  return pow2;
}

}  // namespace

HbmCache::HbmCache(const HbmConfig& config)
    : ways_(config.ways), prefer_durable_(config.prefer_durable_eviction) {
  PAX_CHECK(config.ways >= 1);
  PAX_CHECK(config.capacity_lines >= config.ways);
  num_sets_ = pick_set_count(config.capacity_lines, config.ways);
  tags_.assign(num_sets_ * ways_, kFreeTag);
  entries_.resize(num_sets_ * ways_);
}

HbmCache::Entry* HbmCache::find(LineIndex line) {
  ++stats_.probes;
  const std::size_t base = set_of(line) * ways_;
  for (unsigned w = 0; w < ways_; ++w) {
    if (tags_[base + w] == line.value) return &entries_[base + w];
  }
  return nullptr;
}

HbmCache::Entry* HbmCache::lookup(LineIndex line) {
  Entry* e = find(line);
  if (e == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  e->lru_tick = ++tick_;
  return e;
}

HbmCache::Entry* HbmCache::allocate(LineIndex line,
                                    std::uint64_t durable_log_offset,
                                    std::optional<EvictedLine>* victim) {
  const std::size_t set = set_of(line);
  const std::size_t base = set * ways_;

  int way = -1;
  for (unsigned w = 0; w < ways_; ++w) {
    if (tags_[base + w] == kFreeTag) {
      way = static_cast<int>(w);
      ++live_;
      break;
    }
  }
  if (way < 0) {
    way = pick_victim_lru(set, durable_log_offset);
    if (way < 0) return nullptr;  // every way pinned
    const Entry& old = entries_[base + way];
    ++stats_.evictions;
    if (!old.dirty) {
      ++stats_.clean_evictions;
    } else if (old.log_record_end <= durable_log_offset) {
      ++stats_.durable_dirty_evictions;
    } else {
      ++stats_.stall_evictions;
    }
    *victim = EvictedLine{old.line, old.data, old.dirty, old.log_record_end};
  }
  ++stats_.insertions;

  tags_[base + way] = line.value;
  Entry& e = entries_[base + way];
  e.line = line;
  e.dirty = false;
  e.pinned = false;
  e.log_record_end = 0;
  e.lru_tick = ++tick_;
  return &e;
}

std::optional<EvictedLine> HbmCache::insert(LineIndex line,
                                            const LineData& data, bool dirty,
                                            std::uint64_t log_record_end,
                                            std::uint64_t durable_log_offset) {
  std::optional<EvictedLine> victim;
  Entry* e = find(line);
  if (e != nullptr) {
    // Update in place: a clean re-insert never washes out dirtiness.
    e->lru_tick = ++tick_;
  } else {
    e = allocate(line, durable_log_offset, &victim);
    PAX_CHECK_MSG(e != nullptr, "every way of the set is pinned");
  }
  e->data = data;
  if (dirty) {
    e->dirty = true;
    e->log_record_end = log_record_end;
  }
  return victim;
}

int HbmCache::pick_victim_lru(std::size_t set,
                              std::uint64_t durable_log_offset) {
  // Scan the set once, remembering the LRU entry of each preference class:
  // clean, dirty-with-durable-record, any.
  int any = -1, clean = -1, durable_dirty = -1;
  const Entry* ways = &entries_[set * ways_];
  for (unsigned w = 0; w < ways_; ++w) {
    const Entry& e = ways[w];
    if (e.pinned) continue;
    const int iw = static_cast<int>(w);
    if (any < 0 || e.lru_tick < ways[any].lru_tick) any = iw;
    if (!e.dirty && (clean < 0 || e.lru_tick < ways[clean].lru_tick)) {
      clean = iw;
    }
    if (e.dirty && e.log_record_end <= durable_log_offset &&
        (durable_dirty < 0 || e.lru_tick < ways[durable_dirty].lru_tick)) {
      durable_dirty = iw;
    }
  }
  if (prefer_durable_) {
    if (clean >= 0) return clean;
    if (durable_dirty >= 0) return durable_dirty;
  }
  return any;
}

void HbmCache::drop(Entry& entry) {
  const std::size_t way = static_cast<std::size_t>(&entry - entries_.data());
  PAX_CHECK(tags_[way] == entry.line.value);
  tags_[way] = kFreeTag;
  entry = Entry{};
  --live_;
}

void HbmCache::for_each_dirty(const std::function<void(Entry&)>& fn) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (tags_[i] != kFreeTag && entries_[i].dirty) fn(entries_[i]);
  }
}

}  // namespace pax::device
