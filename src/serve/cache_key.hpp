/// \file cache_key.hpp
/// \brief What the serve cache is keyed on, what it keeps, and what its
/// tiers count.
///
/// A key names one mapping problem: the source AIG's structural digest
/// (aig_hash.hpp) x every `FlowParams` field that changes a result
/// (`t1::params_fingerprint`) x the pass pipeline (`Pipeline::spec()`).
/// `cache_key` is the one place that combines them; the server and the
/// cache tests both derive their keys through it.  The value is a
/// `ServedResult`: what a served job's response reads, nothing more.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "serve/aig_hash.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::serve {

/// Opaque 128-bit cache key; the tiers never interpret the bits.
struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

/// Hash functor for the tiers' key indexes.
struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    // The key is already a high-quality hash; fold the halves.
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9E3779B97F4A7C15ull));
  }
};

/// Platform-stable fingerprint of one flow configuration: `params` run
/// through the pipeline named by `pipeline_spec`.  Jobs with equal
/// configurations share one `run_many` dispatch.
inline std::uint64_t config_fingerprint(const t1::FlowParams& params,
                                        std::string_view pipeline_spec) {
  std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a offset basis
  for (const char c : pipeline_spec) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return t1::params_fingerprint(params) ^ h;
}

/// The key of mapping the design with `digest` under `params` through the
/// pipeline named by `pipeline_spec`.
inline CacheKey cache_key(const Digest& digest, const t1::FlowParams& params,
                          std::string_view pipeline_spec) {
  const std::uint64_t config = config_fingerprint(params, pipeline_spec);
  return CacheKey{digest.hi ^ config,
                  digest.lo ^ (config * 0x9E3779B97F4A7C15ull)};
}

/// The cached value of every tier: the paper's Table-I statistics and the
/// CEC verdict of one successful run.  A hit answers with exactly these
/// fields of the cold response; a failed run has no `ServedResult`.
struct ServedResult {
  t1::FlowStats stats;
  std::string cec = "skipped";  // skipped|equivalent|not_equivalent|unknown
};

/// Point-in-time counter snapshot of one tier or of the tiered pair, so
/// the `stats` command and the CLI summary read every level the same way.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;  // LRU evictions; the disk tier has none
  std::uint64_t entries = 0;    // resident entries
  std::uint64_t bytes = 0;      // resident (or on-log) bytes
};

}  // namespace t1map::serve
