// Batched-execution tests: `FlowEngine::run_many` — the one threaded path —
// is bit-identical to serial execution (BLIF of the materialized netlist
// plus every statistic) on the deep cordic28 / log2_16 chains and on a
// batch smaller than its thread budget.  A single netlist's flow is
// serial, so the worker count must never change a result.
//
// This suite runs under TSan in CI — the threaded paths here are the data
// they validate.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "gen/registry.hpp"
#include "io/blif.hpp"
#include "t1/flow_engine.hpp"

namespace t1map {
namespace {

std::string to_blif(const sfq::Netlist& ntk) {
  std::ostringstream os;
  io::write_blif(os, ntk, "m");
  return os.str();
}

std::string stats_key(const t1::FlowStats& s) {
  std::ostringstream os;
  os << s.dffs << ' ' << s.area_jj << ' ' << s.depth_cycles << ' '
     << s.t1_found << ' ' << s.t1_used << ' ' << s.t1_cores << ' '
     << s.logic_cells << ' ' << s.splitters << ' ' << s.num_stages;
  return os.str();
}

void expect_run_many_identical(const std::vector<const Aig*>& batch,
                               const t1::FlowParams& params, int threads) {
  t1::FlowEngine engine;
  const auto serial = engine.run_many(batch, params, 1);
  const auto threaded = engine.run_many(batch, params, threads);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok() && threaded[i].ok()) << i;
    EXPECT_EQ(to_blif(serial[i].mapped), to_blif(threaded[i].mapped)) << i;
    EXPECT_EQ(to_blif(serial[i].materialized.netlist),
              to_blif(threaded[i].materialized.netlist))
        << i;
    EXPECT_EQ(stats_key(serial[i].stats), stats_key(threaded[i].stats)) << i;
  }
}

// Deep chains: thousands of nodes across many topological levels, mapped
// concurrently.  (The log2 generator only accepts power-of-two widths >= 4,
// so log2_16 is the deep log2 representative.)
TEST(ParallelFlow, DeepNetlistsIdenticalUnderRunMany) {
  const Aig cordic = gen::make_named("cordic28");
  const Aig log2 = gen::make_named("log2_16");
  t1::FlowParams params;
  params.num_phases = 4;
  params.use_t1 = true;
  params.verify_rounds = 0;
  expect_run_many_identical({&cordic, &log2}, params, 2);
}

// run_many over a batch smaller than its thread budget must match the
// serial batch.
TEST(ParallelFlow, RunManySpillIdentical) {
  const Aig a = gen::make_named("adder16");
  const Aig b = gen::make_named("voter25");
  const Aig c = gen::make_named("comparator16");
  t1::FlowParams params;
  params.verify_rounds = 0;
  expect_run_many_identical({&a, &b, &c}, params, 8);  // 3 workers
}

}  // namespace
}  // namespace t1map
