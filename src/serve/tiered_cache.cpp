#include "serve/tiered_cache.hpp"

#include <utility>

namespace t1map::serve {

TieredCache::TieredCache(CacheConfig memory, std::string disk_dir)
    : memory_(memory) {
  if (disk_dir.empty()) return;
  DiskCacheConfig disk;
  disk.dir = std::move(disk_dir);
  disk_ = std::make_unique<DiskCache>(std::move(disk));
}

bool TieredCache::lookup(const CacheKey& key, t1::EngineResult& out) {
  bool hit = memory_.lookup(key, out);
  if (!hit && disk_ != nullptr && disk_->lookup(key, out)) {
    // Promote so the next lookup stops at the memory tier.
    memory_.store(key, out);
    hit = true;
  }
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return hit;
}

void TieredCache::store(const CacheKey& key, const t1::EngineResult& result) {
  if (!result.ok()) return;  // tiers reject these too; don't count them
  insertions_.fetch_add(1, std::memory_order_relaxed);
  memory_.store(key, result);
  if (disk_ != nullptr) disk_->store(key, result);
}

CacheStats TieredCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  // Evictions and residency are per-tier facts; the pair reports their
  // totals (entries may count one key in both tiers — that is the honest
  // answer for "how much is resident").
  const CacheStats m = memory_.stats();
  const CacheStats d = disk_ != nullptr ? disk_->stats() : CacheStats{};
  s.evictions = m.evictions + d.evictions;
  s.entries = m.entries + d.entries;
  s.bytes = m.bytes + d.bytes;
  return s;
}

}  // namespace t1map::serve
