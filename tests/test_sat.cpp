// CDCL solver tests: unit propagation, conflicts, models, random 3-CNF
// cross-checked against brute force, Tseitin/AIG-CEC smoke tests, and the
// SAT sweep of the CEC: merges only what it proves, and a seeded netlist
// fault is still caught at the right output.

#include <gtest/gtest.h>

#include "aig/aig.hpp"
#include "aig/aig_sim.hpp"
#include "common/rng.hpp"
#include "gen/registry.hpp"
#include "sat/cec.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::sat {
namespace {

TEST(Sat, TrivialSatAndUnsat) {
  Solver s;
  const int a = s.new_var();
  EXPECT_TRUE(s.add_clause({mk_lit(a)}));
  EXPECT_EQ(s.solve(), Solver::Result::kSat);
  EXPECT_TRUE(s.model_value(a));

  Solver u;
  const int b = u.new_var();
  u.add_clause({mk_lit(b)});
  u.add_clause({mk_lit(b, true)});
  EXPECT_EQ(u.solve(), Solver::Result::kUnsat);
}

TEST(Sat, EmptyClauseRejected) {
  Solver s;
  EXPECT_FALSE(s.add_clause(std::initializer_list<Lit>{}));
  EXPECT_EQ(s.solve(), Solver::Result::kUnsat);
}

TEST(Sat, TautologyIgnored) {
  Solver s;
  const int a = s.new_var();
  EXPECT_TRUE(s.add_clause({mk_lit(a), mk_lit(a, true)}));
  EXPECT_EQ(s.solve(), Solver::Result::kSat);
}

TEST(Sat, PigeonHole3Into2IsUnsat) {
  // PHP(3,2): 3 pigeons, 2 holes.
  Solver s;
  int p[3][2];
  for (auto& row : p) {
    for (int& v : row) v = s.new_var();
  }
  for (int i = 0; i < 3; ++i) {
    s.add_clause({mk_lit(p[i][0]), mk_lit(p[i][1])});
  }
  for (int h = 0; h < 2; ++h) {
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        s.add_clause({mk_lit(p[i][h], true), mk_lit(p[j][h], true)});
      }
    }
  }
  EXPECT_EQ(s.solve(), Solver::Result::kUnsat);
}

TEST(Sat, SolveUnderAssumptionsIsIncremental) {
  // Implication chain a -> b -> c.  Assuming {a, ~c} is UNSAT *under the
  // assumptions* only: the same instance must stay usable and then prove
  // {a, c} satisfiable, and answer a plain solve() afterwards.
  Solver s;
  const int a = s.new_var();
  const int b = s.new_var();
  const int c = s.new_var();
  s.add_clause({mk_lit(a, true), mk_lit(b)});
  s.add_clause({mk_lit(b, true), mk_lit(c)});

  const Lit assume_unsat[] = {mk_lit(a), mk_lit(c, true)};
  EXPECT_EQ(s.solve(assume_unsat), Solver::Result::kUnsat);
  const Lit assume_sat[] = {mk_lit(a), mk_lit(c)};
  ASSERT_EQ(s.solve(assume_sat), Solver::Result::kSat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  EXPECT_TRUE(s.model_value(c));
  EXPECT_EQ(s.solve(), Solver::Result::kSat);

  // Assumptions already implied at level 0 take the dummy-level path;
  // assumptions refuted at level 0 fail without poisoning the solver.
  s.add_clause({mk_lit(a)});
  const Lit assume_implied[] = {mk_lit(a), mk_lit(b)};
  EXPECT_EQ(s.solve(assume_implied), Solver::Result::kSat);
  const Lit assume_refuted[] = {mk_lit(a, true)};
  EXPECT_EQ(s.solve(assume_refuted), Solver::Result::kUnsat);
  EXPECT_EQ(s.solve(), Solver::Result::kSat);
}

TEST(Sat, AssumptionsMatchUnitClausesOnRandomCnf) {
  // One incremental solver answering assumption queries must agree with a
  // fresh solver given the assumptions as unit clauses.
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const int nvars = 8;
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < 25 + static_cast<int>(rng.below(10)); ++c) {
      std::vector<Lit> clause;
      const int len = 1 + static_cast<int>(rng.below(3));
      for (int k = 0; k < len; ++k) {
        clause.push_back(
            mk_lit(static_cast<int>(rng.below(nvars)), rng.flip()));
      }
      clauses.push_back(std::move(clause));
    }

    Solver incremental;
    for (int i = 0; i < nvars; ++i) incremental.new_var();
    bool inc_consistent = true;
    for (const auto& clause : clauses) {
      inc_consistent = incremental.add_clause(clause) && inc_consistent;
    }

    for (int query = 0; query < 6; ++query) {
      std::vector<Lit> assumptions;
      for (int k = 0; k < 2; ++k) {
        assumptions.push_back(
            mk_lit(static_cast<int>(rng.below(nvars)), rng.flip()));
      }
      Solver fresh;
      for (int i = 0; i < nvars; ++i) fresh.new_var();
      bool consistent = inc_consistent;
      for (const auto& clause : clauses) {
        consistent = fresh.add_clause(clause) && consistent;
      }
      for (const Lit l : assumptions) {
        consistent = fresh.add_clause({l}) && consistent;
      }
      const Solver::Result expect =
          !consistent ? Solver::Result::kUnsat : fresh.solve();
      EXPECT_EQ(incremental.solve(assumptions), expect)
          << "trial " << trial << " query " << query;
    }
  }
}

TEST(Sat, ModelSatisfiesAllClauses) {
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    Solver s;
    const int nvars = 12;
    for (int i = 0; i < nvars; ++i) s.new_var();
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < 40; ++c) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k) {
        clause.push_back(
            mk_lit(static_cast<int>(rng.below(nvars)), rng.flip()));
      }
      clauses.push_back(clause);
      s.add_clause(clause);
    }
    if (s.solve() == Solver::Result::kSat) {
      for (const auto& clause : clauses) {
        bool satisfied = false;
        for (const Lit l : clause) {
          if (s.model_value(lit_var(l)) != lit_negated(l)) satisfied = true;
        }
        EXPECT_TRUE(satisfied);
      }
    }
  }
}

TEST(Sat, RandomCnfAgainstBruteForce) {
  Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    const int nvars = 8;
    const int nclauses = 30 + static_cast<int>(rng.below(15));
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < nclauses; ++c) {
      std::vector<Lit> clause;
      const int len = 1 + static_cast<int>(rng.below(3));
      for (int k = 0; k < len; ++k) {
        clause.push_back(
            mk_lit(static_cast<int>(rng.below(nvars)), rng.flip()));
      }
      clauses.push_back(std::move(clause));
    }

    bool brute_sat = false;
    for (std::uint32_t assign = 0; assign < (1u << nvars); ++assign) {
      bool all = true;
      for (const auto& clause : clauses) {
        bool any = false;
        for (const Lit l : clause) {
          const bool val = ((assign >> lit_var(l)) & 1u) != 0;
          if (val != lit_negated(l)) any = true;
        }
        if (!any) {
          all = false;
          break;
        }
      }
      if (all) {
        brute_sat = true;
        break;
      }
    }

    Solver s;
    for (int i = 0; i < nvars; ++i) s.new_var();
    bool consistent = true;
    for (const auto& clause : clauses) {
      consistent = s.add_clause(clause) && consistent;
    }
    const Solver::Result r = s.solve();
    EXPECT_EQ(r == Solver::Result::kSat, brute_sat) << "trial " << trial;
  }
}

TEST(Cnf, EncodeTtMatchesFunction) {
  // Encode MAJ3 and check all 8 rows by forcing inputs.
  for (std::uint64_t row = 0; row < 8; ++row) {
    Solver s;
    const Lit a = fresh_lit(s);
    const Lit b = fresh_lit(s);
    const Lit c = fresh_lit(s);
    const Lit out = fresh_lit(s);
    encode_tt(s, out, tts::maj3(), std::vector<Lit>{a, b, c});
    s.add_clause({(row & 1) ? a : lit_negate(a)});
    s.add_clause({(row & 2) ? b : lit_negate(b)});
    s.add_clause({(row & 4) ? c : lit_negate(c)});
    ASSERT_EQ(s.solve(), Solver::Result::kSat);
    EXPECT_EQ(s.model_value(lit_var(out)), tts::maj3().bit(row));
  }
}

TEST(Cec, EquivalentAigs) {
  // XOR built two ways.
  Aig a;
  {
    const auto x = a.create_pi();
    const auto y = a.create_pi();
    a.create_po(a.create_xor(x, y));
  }
  Aig b;
  {
    const auto x = b.create_pi();
    const auto y = b.create_pi();
    // (x | y) & !(x & y)
    b.create_po(b.create_and(b.create_or(x, y),
                             lit_not(b.create_and(x, y))));
  }
  EXPECT_EQ(check_equivalence(a, b).verdict, CecResult::Verdict::kEquivalent);
}

TEST(Cec, InequivalentAigsGiveCounterexample) {
  Aig a;
  {
    const auto x = a.create_pi();
    const auto y = a.create_pi();
    a.create_po(a.create_and(x, y));
  }
  Aig b;
  {
    const auto x = b.create_pi();
    const auto y = b.create_pi();
    b.create_po(b.create_or(x, y));
  }
  const CecResult r = check_equivalence(a, b);
  ASSERT_EQ(r.verdict, CecResult::Verdict::kNotEquivalent);
  // The counterexample must actually distinguish AND from OR.
  ASSERT_EQ(r.counterexample.size(), 2u);
  const bool x = r.counterexample[0];
  const bool y = r.counterexample[1];
  EXPECT_NE(x && y, x || y);
}

TEST(Cec, RippleCarryVsCarryLookahead8) {
  // 8-bit adder two ways; SAT proves them equal.
  const auto build_ripple = [](Aig& aig) {
    std::vector<Lit> a, b;
    for (int i = 0; i < 8; ++i) a.push_back(aig.create_pi());
    for (int i = 0; i < 8; ++i) b.push_back(aig.create_pi());
    Lit carry = Aig::kConst0;
    for (int i = 0; i < 8; ++i) {
      aig.create_po(aig.create_xor3(a[i], b[i], carry));
      carry = aig.create_maj3(a[i], b[i], carry);
    }
    aig.create_po(carry);
  };
  const auto build_lookahead = [](Aig& aig) {
    std::vector<Lit> a, b;
    for (int i = 0; i < 8; ++i) a.push_back(aig.create_pi());
    for (int i = 0; i < 8; ++i) b.push_back(aig.create_pi());
    // g/p prefix computation (serial prefix, structurally different).
    Lit carry = Aig::kConst0;
    for (int i = 0; i < 8; ++i) {
      const Lit g = aig.create_and(a[i], b[i]);
      const Lit p = aig.create_xor(a[i], b[i]);
      aig.create_po(aig.create_xor(p, carry));
      carry = aig.create_or(g, aig.create_and(p, carry));
    }
    aig.create_po(carry);
  };
  Aig x, y;
  build_ripple(x);
  build_lookahead(y);
  const CecResult r = check_equivalence(x, y);
  EXPECT_EQ(r.verdict, CecResult::Verdict::kEquivalent);
}

TEST(Cec, ConflictLimitReturnsUnknownOrAnswer) {
  Aig x, y;
  const auto mk = [](Aig& aig, bool flip) {
    std::vector<Lit> pis;
    for (int i = 0; i < 16; ++i) pis.push_back(aig.create_pi());
    Lit acc = Aig::kConst1;
    for (int i = 0; i < 16; ++i) acc = aig.create_and(acc, pis[i]);
    aig.create_po(flip ? lit_not(acc) : acc);
  };
  mk(x, false);
  mk(y, false);
  const CecResult r = check_equivalence(x, y, /*conflict_limit=*/1);
  EXPECT_TRUE(r.verdict == CecResult::Verdict::kEquivalent ||
              r.verdict == CecResult::Verdict::kUnknown);
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

TEST(Cec, FlippedOutputsBlameTheLowestWithAStableCounterexample) {
  const Aig aig = gen::make_named("mul8");
  const Aig flipped = copy_with_flipped_pos(aig, {2, 9});
  const CecResult first = check_equivalence(aig, flipped);
  ASSERT_EQ(first.verdict, CecResult::Verdict::kNotEquivalent);
  EXPECT_EQ(first.failing_output, 2);
  ASSERT_EQ(first.counterexample.size(), aig.num_pis());
  const CecResult again = check_equivalence(aig, flipped);
  EXPECT_EQ(again.failing_output, 2);
  EXPECT_EQ(again.counterexample, first.counterexample);
}

TEST(Cec, ZeroBudgetIsUnknownOnOneOutputAndARoomyBudgetProves) {
  const Aig aig = gen::make_named("mul8");
  const Aig same = copy_with_flipped_pos(aig, {});
  const CecResult first = check_equivalence(aig, same, /*conflict_limit=*/0);
  EXPECT_EQ(first.verdict, CecResult::Verdict::kUnknown);
  EXPECT_GE(first.failing_output, 0);
  const CecResult again = check_equivalence(aig, same, /*conflict_limit=*/0);
  EXPECT_EQ(again.verdict, CecResult::Verdict::kUnknown);
  EXPECT_EQ(again.failing_output, first.failing_output);

  const CecResult roomy = check_equivalence(aig, same, std::int64_t{1} << 24);
  EXPECT_EQ(roomy.verdict, CecResult::Verdict::kEquivalent);
  EXPECT_EQ(roomy.failing_output, -1);
}

TEST(Cec, FlowOutputsAreEquivalent) {
  t1::FlowEngine engine;
  t1::FlowParams params;
  params.verify_rounds = 0;
  for (const char* name : {"adder16", "comparator16", "voter25"}) {
    const Aig aig = gen::make_named(name);
    const t1::EngineResult flow = engine.run(aig, params);
    ASSERT_TRUE(flow.ok()) << name;
    const CecResult r = check_equivalence(aig, flow.materialized.netlist);
    EXPECT_EQ(r.verdict, CecResult::Verdict::kEquivalent) << name;
    EXPECT_EQ(r.failing_output, -1) << name;
  }
}

// --- SAT sweep ---------------------------------------------------------------

/// 32 PIs; the single PO is their AND, or constant 0.  The sweep's few
/// hundred random patterns all but never set every input, so the deep AND
/// nodes look constant and land in constant 0's candidate class.  (With 16
/// PIs one pattern in 65536 is all-ones, and the fixed simulation seed
/// happens to draw one.)
constexpr int kConjPis = 32;

Aig conj_or_zero(bool zero) {
  Aig aig;
  Lit acc = Aig::kConst1;
  for (int i = 0; i < kConjPis; ++i) {
    acc = aig.create_and(acc, aig.create_pi());
  }
  aig.create_po(zero ? Aig::kConst0 : acc);
  return aig;
}

sfq::Netlist conj_or_zero_netlist(bool zero) {
  sfq::Netlist ntk;
  std::uint32_t acc = ntk.add_pi();
  for (int i = 1; i < kConjPis; ++i) {
    acc = ntk.add_cell(sfq::CellKind::kAnd2, {acc, ntk.add_pi()});
  }
  ntk.add_po(zero ? ntk.add_const(false) : acc);
  return ntk;
}

void expect_refuted_by_all_ones(const CecResult& r, const char* what) {
  EXPECT_EQ(r.verdict, CecResult::Verdict::kNotEquivalent) << what;
  EXPECT_EQ(r.failing_output, 0) << what;
  EXPECT_EQ(r.counterexample, std::vector<bool>(kConjPis, true)) << what;
}

// A sweep that merged on signature instead of on proof would call these
// equivalent.
TEST(CecSweep, SimulationLookalikesAreNotMerged) {
  const Aig conj = conj_or_zero(false);
  const Aig zero = conj_or_zero(true);
  expect_refuted_by_all_ones(check_equivalence(conj, zero), "and vs 0");
  expect_refuted_by_all_ones(check_equivalence(zero, conj), "0 vs and");
  expect_refuted_by_all_ones(
      check_equivalence(conj, conj_or_zero_netlist(true)),
      "and vs netlist 0");
  expect_refuted_by_all_ones(
      check_equivalence(zero, conj_or_zero_netlist(false)),
      "0 vs netlist and");
}

/// Copy of `src` with node `target` turned into a cell of kind `kind`.
/// Node ids are preserved.
sfq::Netlist with_cell_kind(const sfq::Netlist& src, std::uint32_t target,
                            sfq::CellKind kind) {
  sfq::Netlist out;
  std::uint32_t pi_index = 0;
  for (std::uint32_t id = 0; id < src.num_nodes(); ++id) {
    const auto f = src.fanins(id);
    const sfq::CellKind k = id == target ? kind : src.kind(id);
    if (src.is_pi(id)) {
      out.add_pi(src.pi_name(pi_index++));
    } else if (src.is_const(id)) {
      out.add_const(k == sfq::CellKind::kConst1);
    } else if (src.is_t1(id)) {
      out.add_t1(f[0], f[1], f[2]);
    } else if (src.is_tap(id)) {
      out.add_t1_tap(f[0], k);
    } else {
      out.add_cell(k, f);
    }
  }
  for (const auto& po : src.pos()) out.add_po(po.driver, po.name);
  return out;
}

/// Exhaustive PO words of a 16-PI design: word w holds patterns
/// 64w .. 64w+63, PI i set in pattern p iff bit i of p is.
template <class Sim>
std::vector<std::vector<std::uint64_t>> exhaustive16(const Sim& simulate) {
  std::vector<std::vector<std::uint64_t>> out;
  std::vector<std::uint64_t> pi_words(16);
  for (std::uint64_t w = 0; w < (1u << 16) / 64; ++w) {
    for (int i = 0; i < 16; ++i) {
      std::uint64_t word = 0;
      for (int b = 0; b < 64; ++b) {
        if ((((w << 6) | static_cast<std::uint64_t>(b)) >> i) & 1u) {
          word |= 1ull << b;
        }
      }
      pi_words[i] = word;
    }
    out.push_back(simulate(pi_words));
  }
  return out;
}

/// The lowest PO on which the two exhaustive simulations differ, or -1.
int lowest_differing_po(const std::vector<std::vector<std::uint64_t>>& a,
                        const std::vector<std::vector<std::uint64_t>>& b) {
  int lowest = -1;
  for (std::size_t w = 0; w < a.size(); ++w) {
    for (std::size_t po = 0; po < a[w].size(); ++po) {
      if (a[w][po] != b[w][po] &&
          (lowest < 0 || static_cast<int>(po) < lowest)) {
        lowest = static_cast<int>(po);
      }
    }
  }
  return lowest;
}

t1::EngineResult map_mul8_t1(const Aig& aig) {
  t1::FlowEngine engine;
  t1::FlowParams params;  // 4 phases, T1 on
  params.verify_rounds = 0;
  t1::EngineResult flow = engine.run(aig, params);
  EXPECT_TRUE(flow.ok());
  return flow;
}

TEST(CecSweep, SeededNetlistFaultIsCaughtAtTheLowestAffectedPo) {
  const Aig aig = gen::make_named("mul8");
  ASSERT_EQ(aig.num_pis(), 16u);
  const t1::EngineResult flow = map_mul8_t1(aig);
  const sfq::Netlist& good = flow.materialized.netlist;
  const auto reference = exhaustive16(
      [&](std::span<const std::uint64_t> w) { return simulate(aig, w); });

  // The first internal AND2 whose change to OR2 reaches an output.
  for (std::uint32_t id = 0; id < good.num_nodes(); ++id) {
    if (good.kind(id) != sfq::CellKind::kAnd2) continue;
    const sfq::Netlist bad = with_cell_kind(good, id, sfq::CellKind::kOr2);
    const int expected = lowest_differing_po(
        reference, exhaustive16([&](std::span<const std::uint64_t> w) {
          return bad.simulate(w);
        }));
    if (expected < 0) continue;  // masked: try the next cell

    const CecResult r = check_equivalence(aig, bad);
    ASSERT_EQ(r.verdict, CecResult::Verdict::kNotEquivalent) << id;
    EXPECT_EQ(r.failing_output, expected) << id;
    ASSERT_EQ(r.counterexample.size(), 16u);
    std::vector<std::uint64_t> cex_words;
    for (const bool bit : r.counterexample) cex_words.push_back(bit ? 1 : 0);
    const auto po = static_cast<std::size_t>(r.failing_output);
    EXPECT_NE(simulate(aig, cex_words)[po] & 1u,
              bad.simulate(cex_words)[po] & 1u)
        << id;
    return;
  }
  FAIL() << "no AND2 cell of mapped mul8 reaches an output";
}

TEST(CecSweep, ProvenPairsCountsMergesAndRespectsAZeroBudget) {
  const Aig aig = gen::make_named("mul8");
  const t1::EngineResult flow = map_mul8_t1(aig);
  const CecResult swept = check_equivalence(aig, flow.materialized.netlist);
  EXPECT_EQ(swept.verdict, CecResult::Verdict::kEquivalent);
  EXPECT_GT(swept.proven_pairs, 0u);

  // A zero budget leaves the sweep nothing to spend.
  const CecResult starved =
      check_equivalence(aig, flow.materialized.netlist, /*conflict_limit=*/0);
  EXPECT_EQ(starved.verdict, CecResult::Verdict::kUnknown);
  EXPECT_EQ(starved.proven_pairs, 0u);
}

}  // namespace
}  // namespace t1map::sat
