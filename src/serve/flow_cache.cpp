#include "serve/flow_cache.hpp"

namespace t1map::serve {

FlowCache::FlowCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

bool FlowCache::lookup(const CacheKey& key, ServedResult& out) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  out = it->second->result;
  return true;
}

void FlowCache::store(const CacheKey& key, const ServedResult& result) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = index_.find(key); it != index_.end()) {
    // Same key, same deterministic payload — just touch the LRU spot.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, result, sizeof(Entry) + result.cec.size()});
  index_.emplace(key, lru_.begin());
  bytes_ += lru_.front().bytes;
  ++insertions_;

  // Evict strictly from the cold tail.  An entry larger than the whole
  // budget evicts everything including itself.
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

CacheStats FlowCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  CacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  return s;
}

}  // namespace t1map::serve
