#include "serve/flow_cache.hpp"

#include <algorithm>
#include <bit>

namespace t1map::serve {

FlowCache::FlowCache(CacheConfig config)
    : config_(config),
      shard_mask_(std::bit_ceil(static_cast<std::size_t>(
                      std::max(config.num_shards, 1))) -
                  1),
      shard_budget_(config.max_bytes / (shard_mask_ + 1)),
      shards_(shard_mask_ + 1) {}

bool FlowCache::lookup(const CacheKey& key, ServedResult& out) {
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  out = it->second->result;
  return true;
}

void FlowCache::store(const CacheKey& key, const ServedResult& result) {
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mu);
  if (const auto it = shard.index.find(key); it != shard.index.end()) {
    // Same key, same deterministic payload — just touch the LRU spot.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, result, sizeof(Entry) + result.cec.size()});
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += shard.lru.front().bytes;
  ++shard.insertions;

  // Evict strictly from the cold tail.  An entry larger than the whole
  // shard budget evicts everything including itself.
  while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

CacheStats FlowCache::stats() const {
  CacheStats total;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.insertions += shard.insertions;
    total.evictions += shard.evictions;
    total.entries += shard.lru.size();
    total.bytes += shard.bytes;
  }
  return total;
}

std::vector<std::uint64_t> FlowCache::shard_occupancy() const {
  std::vector<std::uint64_t> occupancy(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::lock_guard<std::mutex> lock(shards_[i].mu);
    occupancy[i] = shards_[i].lru.size();
  }
  return occupancy;
}

}  // namespace t1map::serve
