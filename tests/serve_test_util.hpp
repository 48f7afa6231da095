// Shared helpers for the serving-layer suites (test_serve,
// test_disk_cache): cold-vs-cached result equality and cache-key
// derivation.

#pragma once

#include <gtest/gtest.h>

#include <string>

#include "serve/aig_hash.hpp"
#include "serve/cache_key.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::testutil {

/// What the server caches for a successful run.
inline serve::ServedResult served_of(const t1::EngineResult& result) {
  return serve::ServedResult{result.stats, result.cec};
}

/// A cached result answers exactly as the cold run `cold` did: the run
/// succeeded, and the verdict and Table-I stats agree.
inline void expect_results_identical(const t1::EngineResult& cold,
                                     const serve::ServedResult& hit,
                                     const std::string& label) {
  EXPECT_EQ(cold.status, t1::FlowStatus::kOk) << label;
  EXPECT_EQ(cold.cec, hit.cec) << label;
  EXPECT_EQ(cold.stats.area_jj, hit.stats.area_jj) << label;
  EXPECT_EQ(cold.stats.dffs, hit.stats.dffs) << label;
  EXPECT_EQ(cold.stats.depth_cycles, hit.stats.depth_cycles) << label;
  EXPECT_EQ(cold.stats.num_stages, hit.stats.num_stages) << label;
  EXPECT_EQ(cold.stats.logic_cells, hit.stats.logic_cells) << label;
  EXPECT_EQ(cold.stats.splitters, hit.stats.splitters) << label;
  EXPECT_EQ(cold.stats.t1_found, hit.stats.t1_found) << label;
  EXPECT_EQ(cold.stats.t1_used, hit.stats.t1_used) << label;
  EXPECT_EQ(cold.stats.t1_cores, hit.stats.t1_cores) << label;
}

/// The key the server gives `aig` mapped under `params` through `pipeline`
/// (by default the flow a default `FlowEngine` runs).
inline serve::CacheKey key_of(
    const Aig& aig, const t1::FlowParams& params,
    const t1::Pipeline& pipeline = t1::Pipeline::default_flow()) {
  return serve::cache_key(serve::hash_aig(aig), params, pipeline.spec());
}

}  // namespace t1map::testutil
