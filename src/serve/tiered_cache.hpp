/// \file tiered_cache.hpp
/// \brief The serving layer's result cache: an in-memory `FlowCache` in
/// front of an optional persistent `DiskCache`.
///
///   * `lookup` tries memory, then disk; a disk hit is *promoted* — stored
///     into memory — so a result recovered from disk after a restart pays
///     the decode exactly once and is served from memory thereafter;
///   * `store` writes through to both tiers;
///   * `stats` reports the pair's own lookup/store outcomes (a hit in
///     either tier is one tiered hit; a miss means both missed) plus the
///     tiers' resident totals.  Per-tier counters stay available through
///     `memory().stats()` and `disk()->stats()`.
///
/// Thread safety: `TieredCache` adds only atomic counters of its own; both
/// tiers are fully thread-safe, so any number of serve sessions may share
/// one instance.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/cache_key.hpp"
#include "serve/disk_cache.hpp"
#include "serve/flow_cache.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::serve {

class TieredCache {
 public:
  /// A memory tier sized by `memory`, plus a disk tier in `disk_dir` when
  /// it is non-empty (throws `ContractError` as `DiskCache` does when that
  /// directory is unusable).
  explicit TieredCache(CacheConfig memory = {}, std::string disk_dir = {});

  /// Fills `out` and returns true when `key` is in either tier.
  bool lookup(const CacheKey& key, t1::EngineResult& out);
  /// Offers a freshly computed result to both tiers; failed runs are
  /// stored nowhere and not counted.
  void store(const CacheKey& key, const t1::EngineResult& result);
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
