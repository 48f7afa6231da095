/// \file tiered_cache.hpp
/// \brief The serving layer's result cache: an in-memory `FlowCache` in
/// front of an optional persistent `DiskCache`, both holding
/// `ServedResult`s (Table-I statistics + CEC verdict).
///
///   * `lookup` tries memory, then disk; a disk hit is *promoted* — stored
///     into memory — so after a restart the LRU learns the working set the
///     disk tier recovered at boot;
///   * `store` writes through to both tiers;
///   * `stats` reports the pair's own lookup/store outcomes (a hit in
///     either tier is one tiered hit; a miss means both missed) plus the
///     tiers' resident totals.  Per-tier counters stay available through
///     `memory().stats()` and `disk()->stats()`.
///
/// Thread safety: `TieredCache` adds only atomic counters of its own; each
/// tier guards itself with one mutex, so any number of serve sessions may
/// share one instance.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/cache_key.hpp"
#include "serve/disk_cache.hpp"
#include "serve/flow_cache.hpp"

namespace t1map::serve {

class TieredCache {
 public:
  /// A memory tier of `memory_bytes`, plus a disk tier in `disk_dir` when
  /// it is non-empty (throws `ContractError` as `DiskCache` does when that
  /// directory is unusable).
  explicit TieredCache(std::size_t memory_bytes = kDefaultCacheBytes,
                       std::string disk_dir = {});

  /// Fills `out` and returns true when `key` is in either tier.
  bool lookup(const CacheKey& key, ServedResult& out);
  /// Offers a freshly computed result to both tiers.
  void store(const CacheKey& key, const ServedResult& result);
  CacheStats stats() const;

  FlowCache& memory() { return memory_; }
  const FlowCache& memory() const { return memory_; }
  /// The disk tier, or nullptr when none was configured.
  const DiskCache* disk() const { return disk_.get(); }

 private:
  FlowCache memory_;
  std::unique_ptr<DiskCache> disk_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
};

}  // namespace t1map::serve
