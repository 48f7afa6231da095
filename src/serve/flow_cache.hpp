/// \file flow_cache.hpp
/// \brief Sharded, thread-safe in-memory LRU cache of mapped flow results
/// — the memory tier of the serving cache.
///
/// Keys are 128-bit `CacheKey`s (AIG digest x configuration, see
/// cache_key.hpp), entries hold the complete
/// `EngineResult` — mapped netlist, materialized netlist, Table-I
/// statistics, diagnostics and the CEC verdict — so a hit reproduces a
/// cold `run` bit for bit (stage times excepted: they are zeroed, a cached
/// result costs no flow time).
///
/// Concurrency: the key space is split across `num_shards` independently
/// locked shards, so concurrent lookups/stores contend only when they land
/// on the same shard.  Memory: every entry is charged an estimated byte
/// size; each shard evicts from its LRU tail once its share of `max_bytes`
/// overflows.  Hit/miss/insertion/eviction counters are maintained per
/// shard and aggregated by `stats()`.

#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serve/cache_key.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::serve {

struct CacheConfig {
  /// Total byte budget across all shards (estimated entry sizes).
  std::size_t max_bytes = 256ull << 20;
  /// Shard count; rounded up to a power of two, minimum 1.
  int num_shards = 8;
};

/// Estimated resident size of a cached result in bytes (vectors, strings
/// and both netlists included).  An estimate, not an accounting audit —
/// the budget exists to bound memory, not to bill it exactly.
std::size_t estimate_result_bytes(const t1::EngineResult& result);

class FlowCache {
 public:
  explicit FlowCache(CacheConfig config = {});

  /// Fills `out` and returns true when `key` is resident.
  bool lookup(const CacheKey& key, t1::EngineResult& out);
  /// Retains a successful result (failed runs are ignored).
  void store(const CacheKey& key, const t1::EngineResult& result);
  CacheStats stats() const;

  void clear();

  std::size_t max_bytes() const { return config_.max_bytes; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Resident entry count per shard — the `stats` command's occupancy
  /// report (a skewed distribution means a hot digest range).
  std::vector<std::uint64_t> shard_occupancy() const;

 private:
  struct Entry {
    CacheKey key;
    t1::EngineResult result;
    std::size_t bytes = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        index;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_for(const CacheKey& key) {
    return shards_[static_cast<std::size_t>(key.hi) & shard_mask_];
  }

  CacheConfig config_;
  std::size_t shard_mask_;
  std::size_t shard_budget_;
  std::vector<Shard> shards_;
};

}  // namespace t1map::serve
