/// \file flow_cache.hpp
/// \brief Thread-safe in-memory LRU cache of served results — the memory
/// tier of the serving cache.
///
/// Keys are 128-bit `CacheKey`s (AIG digest x configuration), values are
/// `ServedResult`s (Table-I statistics + CEC verdict, see cache_key.hpp),
/// so a hit returns the cold response's stats and verdict.
///
/// Concurrency: one mutex guards the LRU list, its index and the counters.
/// A critical section is a ~130-byte copy plus a list splice, and only
/// serve session threads (one per connection) touch the cache.  Memory:
/// every entry is charged its fixed size plus its verdict string, and the
/// cache evicts from its LRU tail once the charges pass `max_bytes`.

#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "serve/cache_key.hpp"

namespace t1map::serve {

/// The memory tier's byte budget when none is given (`--cache-mb 256`).
constexpr std::size_t kDefaultCacheBytes = 256ull << 20;

class FlowCache {
 public:
  explicit FlowCache(std::size_t max_bytes = kDefaultCacheBytes);

  /// Fills `out` and returns true when `key` is resident.
  bool lookup(const CacheKey& key, ServedResult& out);
  void store(const CacheKey& key, const ServedResult& result);
  CacheStats stats() const;

  std::size_t max_bytes() const { return max_bytes_; }

 private:
  struct Entry {
    CacheKey key;
    ServedResult result;
    std::size_t bytes = 0;
  };

  const std::size_t max_bytes_;
  mutable std::mutex mu_;  // everything below
  std::list<Entry> lru_;   // front = most recently used
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
      index_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace t1map::serve
