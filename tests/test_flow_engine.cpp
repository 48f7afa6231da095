// FlowEngine / Pipeline API tests:
//   * the default pipeline, executed through one engine with reused scratch
//     state, reproduces the seed golden statistics bit-for-bit on all seven
//     regression generators (the same rows test_flow_regression checks on
//     a fresh engine per row);
//   * run_many is deterministic: the same inputs on 1 vs N threads yield
//     identical FlowStats (this suite is also the TSan CI target);
//   * structured diagnostics, per-pass timings, the ordering contracts of
//     custom pipelines, and the partial result of a failed run.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gen/arith.hpp"
#include "gen/registry.hpp"
#include "golden_flow.hpp"
#include "io/blif.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::t1 {
namespace {

FlowParams golden_params(const Golden& g) {
  FlowParams params;
  params.num_phases = g.phases;
  params.use_t1 = g.use_t1;
  params.verify_rounds = 0;  // stats only, as in test_flow_regression
  return params;
}

void expect_stats_match(const FlowStats& s, const Golden& g,
                        const std::string& label) {
  EXPECT_EQ(s.area_jj, g.jj_total) << label;
  EXPECT_EQ(s.dffs, g.dffs) << label;
  EXPECT_EQ(s.depth_cycles, g.depth_cycles) << label;
  EXPECT_EQ(s.num_stages, g.num_stages) << label;
  EXPECT_EQ(s.logic_cells, g.logic_cells) << label;
  EXPECT_EQ(s.splitters, g.splitters) << label;
  EXPECT_EQ(s.t1_found, g.t1_found) << label;
  EXPECT_EQ(s.t1_used, g.t1_used) << label;
}

std::string to_blif(const sfq::Netlist& ntk) {
  std::ostringstream os;
  io::write_blif(os, ntk, "m");
  return os.str();
}

// One engine across all 21 golden configurations: scratch-state reuse must
// not perturb any result.
TEST(FlowEngine, DefaultPipelineReproducesGoldenStats) {
  FlowEngine engine;
  std::string last_gen;
  Aig aig;
  for (const Golden& g : golden_rows()) {
    if (g.gen != last_gen) {
      aig = gen::make_named(g.gen);
      last_gen = g.gen;
    }
    const EngineResult r = engine.run(aig, golden_params(g));
    const std::string label =
        g.gen + " phases=" + std::to_string(g.phases) +
        (g.use_t1 ? " t1" : " baseline");
    EXPECT_TRUE(r.ok()) << label << ": " << r.diagnostics.to_string();
    expect_stats_match(r.stats, g, label);
  }
}

TEST(FlowEngine, RunManyMatchesSingleThreadedExecution) {
  const std::vector<std::string> names = {
      "adder16", "adder64", "mul8", "square12",
      "voter25", "comparator16", "sin12",
  };
  std::vector<Aig> aigs;
  aigs.reserve(names.size());
  for (const std::string& name : names) aigs.push_back(gen::make_named(name));
  std::vector<const Aig*> batch;
  for (const Aig& aig : aigs) batch.push_back(&aig);

  FlowParams params;
  params.num_phases = 4;
  params.use_t1 = true;
  params.verify_rounds = 2;

  FlowEngine engine;
  const std::vector<EngineResult> seq = engine.run_many(batch, params, 1);
  const std::vector<EngineResult> par = engine.run_many(batch, params, 4);

  ASSERT_EQ(seq.size(), batch.size());
  ASSERT_EQ(par.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(seq[i].ok()) << names[i];
    ASSERT_TRUE(par[i].ok()) << names[i];
    EXPECT_EQ(seq[i].stats.area_jj, par[i].stats.area_jj) << names[i];
    EXPECT_EQ(seq[i].stats.dffs, par[i].stats.dffs) << names[i];
    EXPECT_EQ(seq[i].stats.depth_cycles, par[i].stats.depth_cycles)
        << names[i];
    EXPECT_EQ(seq[i].stats.num_stages, par[i].stats.num_stages) << names[i];
    EXPECT_EQ(seq[i].stats.logic_cells, par[i].stats.logic_cells)
        << names[i];
    EXPECT_EQ(seq[i].stats.splitters, par[i].stats.splitters) << names[i];
    EXPECT_EQ(seq[i].stats.t1_found, par[i].stats.t1_found) << names[i];
    EXPECT_EQ(seq[i].stats.t1_used, par[i].stats.t1_used) << names[i];
    EXPECT_EQ(to_blif(seq[i].materialized.netlist),
              to_blif(par[i].materialized.netlist))
        << names[i];
  }
}

TEST(FlowEngine, RunManyMoreThreadsThanWork) {
  const Aig adder = gen::ripple_adder(8);
  const std::vector<const Aig*> batch = {&adder, &adder};
  FlowEngine engine;
  const auto results = engine.run_many(batch, FlowParams{}, 16);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[0].stats.area_jj, results[1].stats.area_jj);
}

TEST(FlowEngine, CecPassRecordsVerdictAndTiming) {
  const Aig aig = gen::ripple_adder(8);
  FlowEngine engine(Pipeline::default_flow(/*with_cec=*/true));
  const EngineResult r = engine.run(aig, FlowParams{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.cec, "equivalent");
  ASSERT_FALSE(r.pass_times.empty());
  EXPECT_EQ(r.pass_times.back().pass, "cec");
  EXPECT_GE(r.pass_times.back().seconds, 0.0);
}

TEST(FlowEngine, SkippingChecksStillProducesGoldenStats) {
  const Aig aig = gen::make_named("adder16");
  FlowParams params;
  params.num_phases = 4;
  params.use_t1 = true;
  FlowEngine engine(Pipeline::default_flow(false, /*skip_checks=*/true));
  const EngineResult r = engine.run(aig, params);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.has_materialized);
  EXPECT_EQ(r.stats.area_jj, 1058);
  EXPECT_EQ(r.stats.t1_used, 15);
  EXPECT_TRUE(r.diagnostics.empty());
  EXPECT_EQ(r.cec, "skipped");

  // A pipeline that stops before DFF materialization reports so.
  Pipeline map_t1;
  map_t1.add(std::make_unique<MapPass>())
      .add(std::make_unique<T1DetectPass>());
  FlowEngine partial(std::move(map_t1));
  const EngineResult pr = partial.run(aig, params);
  ASSERT_TRUE(pr.ok());
  EXPECT_FALSE(pr.has_materialized);
  EXPECT_EQ(pr.stats.t1_used, 15);  // detection still ran
}

// `spec()` of the default flows is an input of the serve cache key.
TEST(FlowEngine, PipelineSpecRoundTrips) {
  EXPECT_EQ(Pipeline::default_flow().spec(), "map,t1,stage,dff,timing,sim");
  EXPECT_EQ(Pipeline::default_flow(/*with_cec=*/true).spec(),
            "map,t1,stage,dff,timing,sim,cec");
  // --skip-checks drops every verification pass, CEC included.
  for (const bool with_cec : {false, true}) {
    EXPECT_EQ(Pipeline::default_flow(with_cec, /*skip_checks=*/true).spec(),
              "map,t1,stage,dff");
  }
}

TEST(FlowEngine, OutOfOrderPipelineViolatesContract) {
  const Aig aig = gen::ripple_adder(4);
  // DFF insertion before stage assignment is API misuse, not a structured
  // flow failure: the pass's own input check throws at run time.
  Pipeline bad;
  bad.add(std::make_unique<MapPass>()).add(std::make_unique<DffInsertPass>());
  FlowEngine engine(std::move(bad));
  EXPECT_THROW(engine.run(aig, FlowParams{}), ContractError);
}

// A failing pass stops the pipeline with a status and an error diagnostic,
// and the result still carries every output the earlier passes wrote.
TEST(FlowEngine, FailedRunReturnsStatusDiagnosticAndPartialResult) {
  class FailingPass final : public Pass {
   public:
    const char* name() const override { return "fail"; }
    bool run(FlowContext& ctx) const override {
      ctx.fail(FlowStatus::kTimingViolation, name(), "injected failure");
      return false;
    }
  };
  class RecordingPass final : public Pass {
   public:
    explicit RecordingPass(bool* ran) : ran_(ran) {}
    const char* name() const override { return "record"; }
    bool run(FlowContext& /*ctx*/) const override {
      *ran_ = true;
      return true;
    }

   private:
    bool* ran_;
  };

  bool trailing_ran = false;
  Pipeline pipeline = Pipeline::default_flow(false, /*skip_checks=*/true);
  pipeline.add(std::make_unique<FailingPass>())
      .add(std::make_unique<RecordingPass>(&trailing_ran));
  FlowEngine engine(std::move(pipeline));
  const Aig aig = gen::make_named("adder16");
  const EngineResult r = engine.run(aig, FlowParams{});

  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status, FlowStatus::kTimingViolation);
  EXPECT_EQ(r.diagnostics.first_error(), "injected failure");
  EXPECT_TRUE(r.has_materialized);
  EXPECT_GT(r.mapped.num_nodes(), 0u);
  EXPECT_GT(r.materialized.netlist.num_nodes(), 0u);
  EXPECT_GT(r.stats.dffs, 0);
  EXPECT_EQ(r.stats.t1_used, 15);
  EXPECT_GT(r.total_seconds, 0.0);
  // Timings end at the failing pass: the trailing pass never ran.
  ASSERT_EQ(r.pass_times.size(), 5u);
  EXPECT_EQ(r.pass_times.back().pass, "fail");
  EXPECT_EQ(r.cec, "skipped");
  EXPECT_FALSE(trailing_ran);
}

TEST(FlowEngine, T1StillRequiresThreePhases) {
  const Aig aig = gen::ripple_adder(4);
  FlowParams params;
  params.num_phases = 2;
  params.use_t1 = true;
  FlowEngine engine;
  EXPECT_THROW(engine.run(aig, params), ContractError);
}

TEST(FlowEngine, DiagnosticsRenderWithSeverityAndPass) {
  Diagnostics diags;
  EXPECT_TRUE(diags.empty());
  EXPECT_FALSE(diags.has_errors());
  diags.info("map", "mapped 10 cells");
  diags.warning("cec", "inconclusive");
  EXPECT_FALSE(diags.has_errors());
  diags.error("timing", "edge u->v illegal");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(diags.first_error(), "edge u->v illegal");
  const std::string text = diags.to_string();
  EXPECT_NE(text.find("info [map] mapped 10 cells"), std::string::npos);
  EXPECT_NE(text.find("warning [cec] inconclusive"), std::string::npos);
  EXPECT_NE(text.find("error [timing] edge u->v illegal"),
            std::string::npos);
}

TEST(FlowEngine, RecordsOneTimingPerPassInPipelineOrder) {
  const Aig aig = gen::make_named("mul8");
  FlowEngine engine(Pipeline::default_flow(/*with_cec=*/true));
  const EngineResult r = engine.run(aig, FlowParams{});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.pass_times.size(), engine.pipeline().size());
  double sum = 0.0;
  for (std::size_t i = 0; i < r.pass_times.size(); ++i) {
    EXPECT_EQ(r.pass_times[i].pass, engine.pipeline()[i].name()) << i;
    EXPECT_GE(r.pass_times[i].seconds, 0.0) << i;
    sum += r.pass_times[i].seconds;
  }
  EXPECT_LE(sum, r.total_seconds);
  EXPECT_GT(r.total_seconds, 0.0);
}

}  // namespace
}  // namespace t1map::t1
