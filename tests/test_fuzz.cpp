// Fuzz subsystem tests: determinism and parameter adherence of the random
// AIG generator and of the small-edit mutator behind the serve benchmark's
// edit requests, a clean differential run over all three configurations,
// and the acceptance demonstrations — an intentionally injected mapping bug
// is caught by the CEC oracle, and an injected contract violation by the
// fuzzer's own catch; both are minimized and dumped as .aag repros.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/require.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/random_aig.hpp"
#include "gen/registry.hpp"
#include "io/aiger.hpp"
#include "sat/cec.hpp"
#include "serve/aig_hash.hpp"
#include "sfq/netlist.hpp"
#include "t1/flow_engine.hpp"

namespace t1map {
namespace {

TEST(RandomAig, DeterministicAndSeedSensitive) {
  fuzz::RandomAigOptions options;
  options.seed = 42;
  options.num_pis = 6;
  options.num_pos = 4;
  options.num_ops = 40;
  const Aig a = fuzz::random_aig(options);
  const Aig b = fuzz::random_aig(options);
  EXPECT_EQ(serve::hash_aig(a), serve::hash_aig(b));

  options.seed = 43;
  const Aig c = fuzz::random_aig(options);
  EXPECT_NE(serve::hash_aig(a), serve::hash_aig(c));
}

TEST(RandomAig, HonorsInterfaceParameters) {
  fuzz::RandomAigOptions options;
  options.seed = 7;
  options.num_pis = 5;
  options.num_pos = 9;
  options.num_ops = 30;
  const Aig aig = fuzz::random_aig(options);
  EXPECT_EQ(aig.num_pis(), options.num_pis);
  EXPECT_EQ(aig.num_pos(), options.num_pos);
  EXPECT_GT(aig.num_ands(), 0u);
}

TEST(MutateAig, DeterministicAndInterfacePreserving) {
  const Aig src = gen::make_named("adder16");
  const fuzz::MutateOptions options{7, 2};
  const Aig a = fuzz::mutate_aig(src, options);
  const Aig b = fuzz::mutate_aig(src, options);
  EXPECT_EQ(serve::hash_aig(a), serve::hash_aig(b));

  ASSERT_EQ(a.num_pis(), src.num_pis());
  ASSERT_EQ(a.num_pos(), src.num_pos());
  for (std::uint32_t i = 0; i < src.num_pis(); ++i) {
    EXPECT_EQ(a.pi_name(i), src.pi_name(i)) << "PI " << i;
  }
  for (std::uint32_t i = 0; i < src.num_pos(); ++i) {
    EXPECT_EQ(a.po_name(i), src.po_name(i)) << "PO " << i;
  }
}

TEST(MutateAig, ZeroEditsKeepTheSourceAndSomeSeedEdits) {
  const Aig src = gen::make_named("adder16");
  const serve::Digest source = serve::hash_aig(src);
  EXPECT_EQ(serve::hash_aig(fuzz::mutate_aig(src, {1, 0})), source);

  bool changed = false;
  for (std::uint64_t seed = 1; seed <= 8 && !changed; ++seed) {
    changed = !(serve::hash_aig(fuzz::mutate_aig(src, {seed, 1})) == source);
  }
  EXPECT_TRUE(changed) << "no seed in 1..8 edited adder16";
}

TEST(MutateAig, MutantMapsThroughTheDefaultFlow) {
  const Aig src = gen::make_named("adder16");
  const Aig mutant = fuzz::mutate_aig(src, {3, 1});
  ASSERT_FALSE(serve::hash_aig(mutant) == serve::hash_aig(src));
  t1::FlowEngine engine;
  const t1::EngineResult result = engine.run(mutant, t1::FlowParams{});
  EXPECT_TRUE(result.ok()) << result.cec;
}

TEST(Fuzz, CleanRunReportsNoFailures) {
  fuzz::FuzzOptions options;
  options.iterations = 3;
  options.seed = 2026;
  options.aig.num_pis = 6;
  options.aig.num_pos = 4;
  options.aig.num_ops = 30;
  options.verify_rounds = 1;
  options.repro_dir = ::testing::TempDir() + "t1map_fuzz_clean";
  const fuzz::FuzzReport report = fuzz::run_fuzz(options);
  EXPECT_TRUE(report.ok()) << report.failures.size() << " failure(s), first: "
                           << (report.failures.empty()
                                   ? ""
                                   : report.failures[0].detail);
  EXPECT_EQ(report.iterations, 3);
  // One flow run per config and iteration.
  EXPECT_EQ(report.flows_run, 3L * 3);
}

TEST(Fuzz, InjectedMappingBugIsCaughtMinimizedAndDumped) {
  // The acceptance demonstration: corrupt every materialized netlist by
  // inverting PO0 (a guaranteed miscompile no simulation pass can miss),
  // and require the fuzzer to (a) catch it via the SAT oracle, (b) shrink
  // the failing AIG to a single output, and (c) write an .aag repro that
  // still carries the failure's shape.
  const std::string repro_dir =
      ::testing::TempDir() + "t1map_fuzz_injected";
  std::filesystem::remove_all(repro_dir);

  fuzz::FuzzOptions options;
  options.iterations = 1;
  options.seed = 5;
  options.aig.num_pis = 5;
  options.aig.num_pos = 4;
  options.aig.num_ops = 20;
  options.verify_rounds = 0;
  options.repro_dir = repro_dir;
  options.corrupt = [](sfq::Netlist& netlist) {
    const std::uint32_t inverted = netlist.add_cell(
        sfq::CellKind::kNot, {netlist.pos()[0].driver});
    netlist.set_po_driver(0, inverted);
  };

  const fuzz::FuzzReport report = fuzz::run_fuzz(options);
  ASSERT_FALSE(report.ok());
  // Every configuration miscompiles, and every failure is a CEC failure
  // (the flow's own checks ran before the fault was injected).
  ASSERT_EQ(report.failures.size(), 3u);
  for (const fuzz::FuzzFailure& failure : report.failures) {
    SCOPED_TRACE(failure.config);
    EXPECT_EQ(failure.check, "cec");
    EXPECT_NE(failure.detail.find("differs from source"), std::string::npos)
        << failure.detail;

    // Minimization must shrink to the single output the fault lives on.
    EXPECT_EQ(failure.minimized.num_pos(), 1u);
    EXPECT_LE(failure.minimized.num_ands(), 2u)
        << "cone trimming should walk an inverted-PO repro down to the PIs";

    // The repro landed on disk as parseable AIGER describing the same AIG.
    ASSERT_FALSE(failure.repro_path.empty());
    std::ifstream in(failure.repro_path);
    ASSERT_TRUE(in.good()) << failure.repro_path;
    const Aig repro = io::read_aiger(in);
    EXPECT_EQ(serve::hash_aig(repro), serve::hash_aig(failure.minimized));
  }

  std::filesystem::remove_all(repro_dir);
}

TEST(Fuzz, ContractViolationIsCaughtMinimizedAndDumped) {
  // A netlist invariant broken inside the flow must not end the run: it is
  // reported as a "contract" failure and shrunk like any other.  The hook
  // throws only for netlists with a T1 core, so only the t1 config fails.
  const std::string repro_dir =
      ::testing::TempDir() + "t1map_fuzz_contract";
  std::filesystem::remove_all(repro_dir);

  fuzz::FuzzOptions options;
  options.iterations = 1;
  options.seed = 4;
  options.aig.num_pis = 8;
  options.aig.num_pos = 6;
  options.aig.num_ops = 80;
  options.verify_rounds = 0;
  options.repro_dir = repro_dir;
  options.corrupt = [](sfq::Netlist& netlist) {
    T1MAP_REQUIRE(netlist.num_t1() == 0, "injected T1 contract violation");
  };

  const fuzz::FuzzReport report = fuzz::run_fuzz(options);
  ASSERT_EQ(report.failures.size(), 1u);
  const fuzz::FuzzFailure& failure = report.failures[0];
  EXPECT_EQ(failure.config, "t1");
  EXPECT_EQ(failure.check, "contract");
  EXPECT_NE(failure.detail.find("injected T1 contract violation"),
            std::string::npos)
      << failure.detail;
  EXPECT_EQ(failure.minimized.num_pos(), 1u);
  ASSERT_FALSE(failure.repro_path.empty());
  std::ifstream in(failure.repro_path);
  ASSERT_TRUE(in.good()) << failure.repro_path;
  EXPECT_EQ(serve::hash_aig(io::read_aiger(in)),
            serve::hash_aig(failure.minimized));

  std::filesystem::remove_all(repro_dir);
}

TEST(Fuzz, RegistryServesRandomAigsByName) {
  const Aig a = gen::make_named("fuzz100");
  const Aig b = gen::make_named("fuzz100");
  EXPECT_EQ(serve::hash_aig(a), serve::hash_aig(b));
  EXPECT_GT(a.num_ands(), 0u);
  // The size parameter is the seed: a different N is a different circuit.
  const Aig c = gen::make_named("fuzz101");
  EXPECT_NE(serve::hash_aig(a), serve::hash_aig(c));
}

TEST(Fuzz, RegistryRejectsNonPowerOfTwoLog2) {
  try {
    gen::make_named("log2_24");
    FAIL() << "log2_24 must be rejected";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("power of two"), std::string::npos) << what;
    EXPECT_NE(what.find("log2_"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace t1map
