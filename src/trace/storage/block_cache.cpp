#include "trace/storage/block_cache.hpp"

#include "obs/obs.hpp"

namespace logstruct::trace::storage {

namespace {

/// Derived hit-rate gauge in basis points (9980 = 99.80%), refreshed
/// every 1024 lookups so the blocked-storage sweep's hit-rate claim is
/// scrapeable live over /metrics instead of only computed post-hoc in
/// the bench harness. Throttled: two extra relaxed loads per refresh,
/// nothing per ordinary lookup.
inline void maybe_publish_hit_rate(std::int64_t hits, std::int64_t misses) {
#if LOGSTRUCT_OBS
  const std::int64_t total = hits + misses;
  if (total == 0 || (total & 1023) != 0) return;
  OBS_GAUGE_SET("trace/storage/cache_hit_rate", hits * 10000 / total);
#else
  (void)hits;
  (void)misses;
#endif
}

}  // namespace

BlockCache& BlockCache::global() {
  static BlockCache cache;
  return cache;
}

std::uint64_t next_store_generation() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

CachedBlock BlockCache::get(const BlockStore& store, ColumnId col,
                            std::uint32_t block) {
  const Key key{store.generation(),
                (static_cast<std::uint64_t>(col) << 32) | block};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      const std::int64_t hits =
          hits_.fetch_add(1, std::memory_order_relaxed) + 1;
      OBS_COUNTER_INC("trace/storage/cache/hits");
      maybe_publish_hit_rate(hits, misses_.load(std::memory_order_relaxed));
      return it->second.block;
    }
  }

  // Miss: read outside the lock so concurrent misses overlap their I/O.
  const std::uint32_t bytes = store.block_size(col, block);
  std::shared_ptr<char[]> buf(new char[bytes]);
  store.read_block(col, block, buf.get());
  CachedBlock filled{std::shared_ptr<const char[]>(std::move(buf)), bytes};
  const std::int64_t misses =
      misses_.fetch_add(1, std::memory_order_relaxed) + 1;
  OBS_COUNTER_INC("trace/storage/cache/misses");
  maybe_publish_hit_rate(hits_.load(std::memory_order_relaxed), misses);

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Another thread filled it while we read; keep the cached copy.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.block;
  }
  lru_.push_front(key);
  map_.emplace(key, Entry{filled, lru_.begin()});
  bytes_ += bytes;
  evict_locked();
  return filled;
}

void BlockCache::evict_locked() {
  const std::uint64_t budget = budget_.load(std::memory_order_relaxed);
  if (budget == 0) return;  // unbounded
  while (bytes_ > budget && lru_.size() > 1) {
    auto it = map_.find(lru_.back());
    bytes_ -= it->second.block.bytes;
    map_.erase(it);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    OBS_COUNTER_INC("trace/storage/cache/evictions");
  }
}

void BlockCache::set_budget(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  budget_.store(bytes, std::memory_order_relaxed);
  evict_locked();
}

void BlockCache::purge(std::uint64_t generation) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->generation == generation) {
      auto entry = map_.find(*it);
      bytes_ -= entry->second.block.bytes;
      map_.erase(entry);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

BlockCache::Stats BlockCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  s.resident_bytes = bytes_;
  return s;
}

void BlockCache::reset_stats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

}  // namespace logstruct::trace::storage
