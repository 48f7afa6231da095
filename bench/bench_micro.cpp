// Microbenchmarks (google-benchmark) of the substrate layers: cut
// enumeration, technology mapping, T1 detection, stage assignment, DFF
// insertion, netlist simulation, SAT CEC and the analog engine.  These
// track the flow's scaling behaviour; PERF.md has the end-to-end bench.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "cut/cut_enum.hpp"
#include "gen/arith.hpp"
#include "jj/cells.hpp"
#include "retime/dff_insert.hpp"
#include "sat/cec.hpp"
#include "sfq/mapper.hpp"
#include "sfq/netlist_sim.hpp"
#include "t1/flow_engine.hpp"
#include "t1/t1_detect.hpp"

namespace {

using namespace t1map;

void BM_CutEnumeration(benchmark::State& state) {
  const Aig aig = gen::array_multiplier(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerate_cuts(aig, CutParams{3, 16}));
  }
  state.SetComplexityN(aig.num_nodes());
}
BENCHMARK(BM_CutEnumeration)->Arg(8)->Arg(16)->Arg(24)->Complexity();

void BM_Mapper(benchmark::State& state) {
  const Aig aig = gen::array_multiplier(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sfq::map_to_sfq(aig));
  }
}
BENCHMARK(BM_Mapper)->Arg(8)->Arg(16)->Arg(24);

void BM_T1Detect(benchmark::State& state) {
  const Aig aig = gen::array_multiplier(static_cast<int>(state.range(0)));
  const sfq::Netlist ntk = sfq::map_to_sfq(aig);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t1::detect_t1(ntk));
  }
}
BENCHMARK(BM_T1Detect)->Arg(8)->Arg(16)->Arg(24);

void BM_StageAssignment(benchmark::State& state) {
  const Aig aig = gen::array_multiplier(16);
  const sfq::Netlist ntk = sfq::map_to_sfq(aig);
  const int phases = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        retime::assign_stages(ntk, retime::StageParams{phases, true}));
  }
}
BENCHMARK(BM_StageAssignment)->Arg(1)->Arg(4)->Arg(8);

void BM_DffInsertion(benchmark::State& state) {
  const Aig aig = gen::array_multiplier(16);
  const sfq::Netlist ntk = sfq::map_to_sfq(aig);
  const auto sa = retime::assign_stages(ntk, retime::StageParams{4, true});
  for (auto _ : state) {
    benchmark::DoNotOptimize(retime::insert_dffs(ntk, sa));
  }
}
BENCHMARK(BM_DffInsertion);

void BM_FullFlow(benchmark::State& state) {
  const Aig aig = gen::ripple_adder(static_cast<int>(state.range(0)));
  t1::FlowParams params;
  params.verify_rounds = 0;
  t1::FlowEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(aig, params));
  }
}
BENCHMARK(BM_FullFlow)->Arg(16)->Arg(64)->Arg(128);

void BM_NetlistSim64(benchmark::State& state) {
  const Aig aig = gen::array_multiplier(16);
  const sfq::Netlist ntk = sfq::map_to_sfq(aig);
  std::vector<std::uint64_t> words(ntk.num_pis());
  Rng rng(3);
  for (auto& w : words) w = rng.next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ntk.simulate(words));
  }
}
BENCHMARK(BM_NetlistSim64);

void BM_SatCec(benchmark::State& state) {
  const Aig aig = gen::ripple_adder(static_cast<int>(state.range(0)));
  const sfq::Netlist ntk = sfq::map_to_sfq(aig);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sat::check_equivalence(aig, ntk));
  }
}
BENCHMARK(BM_SatCec)->Arg(4)->Arg(8)->Arg(12);

void BM_AnalogT1Toggle(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        jj::simulate_t1({20e-12, 50e-12}, {}, 80e-12));
  }
}
BENCHMARK(BM_AnalogT1Toggle);

}  // namespace

BENCHMARK_MAIN();
