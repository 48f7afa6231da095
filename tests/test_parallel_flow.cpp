// Intra-netlist parallelism tests:
//   * WorkerPool correctness: full id coverage, reuse across runs,
//     exception propagation;
//   * the flow is bit-identical at 1 vs. N threads (BLIF of the mapped and
//     materialized netlists plus every statistic) on the seven golden
//     generators and the deep cordic28 / log2_16 chains: the thread count
//     must never change a result;
//   * solver-pool CEC: equivalent designs stay equivalent at every worker
//     count; a seeded inequivalence reports the deterministic lowest
//     failing output and an identical counterexample serial vs. pooled
//     vs. portfolio; finite budgets stay deterministic.
//
// This suite runs under TSan in CI — the threaded paths here are the data
// they validate.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/worker_pool.hpp"
#include "gen/registry.hpp"
#include "golden_flow.hpp"
#include "io/blif.hpp"
#include "sat/cec.hpp"
#include "t1/flow_engine.hpp"

namespace t1map {
namespace {

// --- WorkerPool --------------------------------------------------------------

TEST(WorkerPool, RunsEveryWorkerIdOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4);
  std::vector<std::atomic<int>> hits(4);
  for (int round = 0; round < 3; ++round) {  // reuse across runs
    for (auto& h : hits) h.store(0);
    pool.run([&](int w) { hits[w].fetch_add(1); });
    for (int w = 0; w < 4; ++w) EXPECT_EQ(hits[w].load(), 1) << w;
  }
}

TEST(WorkerPool, SingleWorkerRunsInline) {
  WorkerPool pool(1);
  int calls = 0;
  pool.run([&](int w) {
    EXPECT_EQ(w, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(WorkerPool, RethrowsWorkerException) {
  WorkerPool pool(3);
  EXPECT_THROW(
      pool.run([&](int w) {
        if (w == 1) throw std::runtime_error("helper boom");
      }),
      std::runtime_error);
  EXPECT_THROW(pool.run([&](int) { throw std::runtime_error("all boom"); }),
               std::runtime_error);
  // The pool survives an exceptional run.
  std::atomic<int> ok{0};
  pool.run([&](int) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 3);
}

// --- Flow determinism at 1 vs N intra-pass threads ---------------------------

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

void expect_threaded_flow_identical(const std::string& gen_name) {
  const Aig aig = gen::make_named(gen_name);
  t1::FlowParams params;
  params.num_phases = 4;
  params.use_t1 = true;
  params.verify_rounds = 0;

  t1::FlowEngine serial_engine;
  const t1::EngineResult serial = serial_engine.run(aig, params);
  ASSERT_TRUE(serial.ok()) << gen_name;

  t1::FlowEngine threaded_engine;
  threaded_engine.set_threads(4);
  const t1::EngineResult threaded = threaded_engine.run(aig, params);
  ASSERT_TRUE(threaded.ok()) << gen_name;

  EXPECT_EQ(to_blif(serial.mapped), to_blif(threaded.mapped)) << gen_name;
  EXPECT_EQ(to_blif(serial.materialized.netlist),
            to_blif(threaded.materialized.netlist))
      << gen_name;
  EXPECT_EQ(stats_key(serial.stats), stats_key(threaded.stats)) << gen_name;
}

TEST(ParallelFlow, GoldenGeneratorsIdenticalAt4Threads) {
  std::string last;
  for (const Golden& g : golden_rows()) {
    if (g.gen == last) continue;
    last = g.gen;
    expect_threaded_flow_identical(g.gen);
  }
}

// Deep chains: thousands of nodes across many topological levels.  (The
// log2 generator only accepts power-of-two widths >= 4, so log2_16 is the
// deep log2 representative.)
TEST(ParallelFlow, DeepNetlistsIdenticalAt4Threads) {
  expect_threaded_flow_identical("cordic28");
  expect_threaded_flow_identical("log2_16");
}

// The one-knob split: run_many over a batch smaller than the budget spills
// the surplus into the passes; results must match the serial batch.
TEST(ParallelFlow, RunManySpillIdentical) {
  const Aig a = gen::make_named("adder16");
  const Aig b = gen::make_named("voter25");
  const Aig c = gen::make_named("comparator16");
  const std::vector<const Aig*> batch = {&a, &b, &c};
  t1::FlowParams params;
  params.verify_rounds = 0;

  t1::FlowEngine engine;
  const auto serial = engine.run_many(batch, params, 1);
  const auto spilled = engine.run_many(batch, params, 8);  // 3 outer, 2 intra
  ASSERT_EQ(serial.size(), spilled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok() && spilled[i].ok()) << i;
    EXPECT_EQ(to_blif(serial[i].materialized.netlist),
              to_blif(spilled[i].materialized.netlist))
        << i;
    EXPECT_EQ(stats_key(serial[i].stats), stats_key(spilled[i].stats)) << i;
  }
}

// --- Solver-pool CEC ---------------------------------------------------------

sat::CecResult check_with_pool(const Aig& aig, const sfq::Netlist& ntk,
                               WorkerPool* pool, bool portfolio = false) {
  sat::CecOptions options;
  options.pool = pool;
  options.portfolio = portfolio;
  sat::Solver solver;
  return sat::check_equivalence(aig, ntk, options, solver);
}

TEST(ParallelCec, EquivalentAtEveryWorkerCount) {
  t1::FlowEngine engine;
  t1::FlowParams params;
  params.verify_rounds = 0;
  for (const char* name : {"adder16", "comparator16", "voter25"}) {
    const Aig aig = gen::make_named(name);
    const t1::EngineResult flow = engine.run(aig, params);
    ASSERT_TRUE(flow.ok()) << name;
    const sfq::Netlist& ntk = flow.materialized.netlist;

    WorkerPool pool2(2);
    WorkerPool pool4(4);
    for (WorkerPool* pool :
         std::vector<WorkerPool*>{nullptr, &pool2, &pool4}) {
      const sat::CecResult r = check_with_pool(aig, ntk, pool);
      EXPECT_EQ(r.verdict, sat::CecResult::Verdict::kEquivalent) << name;
      EXPECT_EQ(r.failing_output, -1) << name;
    }
  }
}

/// Replay-copy of `src` with the listed PO indices complemented.
/// Structural hashing replays identically, so node ids are preserved and
/// the two AIGs differ exactly on the flipped outputs.
Aig copy_with_flipped_pos(const Aig& src,
                          const std::vector<std::uint32_t>& flips) {
  Aig out;
  std::vector<Lit> node_lit(src.num_nodes(), 0);  // node 0 = const0
  std::uint32_t pi_index = 0;
  for (std::uint32_t id = 1; id < src.num_nodes(); ++id) {
    if (src.is_pi(id)) {
      node_lit[id] = out.create_pi(src.pi_name(pi_index++));
    } else {
      const Lit f0 = src.fanin0(id);
      const Lit f1 = src.fanin1(id);
      node_lit[id] = out.create_and(
          lit_notif(node_lit[lit_node(f0)], lit_is_complemented(f0)),
          lit_notif(node_lit[lit_node(f1)], lit_is_complemented(f1)));
    }
  }
  for (std::uint32_t i = 0; i < src.num_pos(); ++i) {
    const Lit po = src.po(i);
    Lit mapped = lit_notif(node_lit[lit_node(po)], lit_is_complemented(po));
    for (const std::uint32_t f : flips) {
      if (f == i) mapped = lit_notif(mapped, true);
    }
    out.create_po(mapped, src.po_name(i));
  }
  return out;
}

sat::CecResult check_aigs_with_pool(const Aig& a, const Aig& b,
                                    WorkerPool* pool,
                                    bool portfolio = false) {
  sat::CecOptions options;
  options.pool = pool;
  options.portfolio = portfolio;
  sat::Solver solver;
  return sat::check_equivalence(a, b, options, solver);
}

TEST(ParallelCec, SeededInequivalenceIsDeterministic) {
  const Aig aig = gen::make_named("mul8");
  // Flip POs 2 and 9: the verdict must blame the *lowest* differing output
  // regardless of which worker finds which counterexample first.
  const Aig flipped = copy_with_flipped_pos(aig, {2, 9});

  const sat::CecResult serial = check_aigs_with_pool(aig, flipped, nullptr);
  ASSERT_EQ(serial.verdict, sat::CecResult::Verdict::kNotEquivalent);
  EXPECT_EQ(serial.failing_output, 2);
  ASSERT_EQ(serial.counterexample.size(), aig.num_pis());

  WorkerPool pool(4);
  for (const bool portfolio : {false, true}) {
    const sat::CecResult pooled =
        check_aigs_with_pool(aig, flipped, &pool, portfolio);
    EXPECT_EQ(pooled.verdict, sat::CecResult::Verdict::kNotEquivalent)
        << "portfolio=" << portfolio;
    EXPECT_EQ(pooled.failing_output, 2) << "portfolio=" << portfolio;
    EXPECT_EQ(pooled.counterexample, serial.counterexample)
        << "portfolio=" << portfolio;
  }
}

TEST(ParallelCec, FiniteBudgetStaysSerialAndDeterministic) {
  const Aig aig = gen::make_named("mul8");
  const Aig same = copy_with_flipped_pos(aig, {});

  // A zero budget cannot complete any real proof: the check must come back
  // unknown and blame the same output every time — even when a pool is
  // supplied, because finite budgets force the serial path.
  WorkerPool pool(4);
  sat::CecResult first;
  for (int round = 0; round < 2; ++round) {
    sat::CecOptions options;
    options.conflict_limit = 0;
    options.pool = &pool;
    sat::Solver solver;
    const sat::CecResult r = sat::check_equivalence(aig, same, options,
                                                    solver);
    EXPECT_EQ(r.verdict, sat::CecResult::Verdict::kUnknown);
    EXPECT_GE(r.failing_output, 0);
    if (round == 0) {
      first = r;
    } else {
      EXPECT_EQ(r.failing_output, first.failing_output);
    }
  }

  // A budget large enough for the whole proof reports equivalence and a
  // clean failing_output.
  sat::CecOptions roomy;
  roomy.conflict_limit = 1 << 24;
  sat::Solver solver;
  const sat::CecResult ok = sat::check_equivalence(aig, same, roomy, solver);
  EXPECT_EQ(ok.verdict, sat::CecResult::Verdict::kEquivalent);
  EXPECT_EQ(ok.failing_output, -1);
}

TEST(ParallelCec, PortfolioEquivalentSmoke) {
  const Aig aig = gen::make_named("voter25");
  t1::FlowEngine engine;
  t1::FlowParams params;
  params.verify_rounds = 0;
  const t1::EngineResult flow = engine.run(aig, params);
  ASSERT_TRUE(flow.ok());

  WorkerPool pool(2);
  const sat::CecResult r = check_with_pool(
      aig, flow.materialized.netlist, &pool, /*portfolio=*/true);
  EXPECT_EQ(r.verdict, sat::CecResult::Verdict::kEquivalent);
  EXPECT_EQ(r.failing_output, -1);
}

}  // namespace
}  // namespace t1map
