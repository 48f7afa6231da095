// Cut enumeration tests: structural properties (leaf bounds, trivial cut,
// dominance, signatures) and functional correctness of per-cut truth tables,
// verified against node simulation.  These pin the enumerator's observable
// behavior across the flat-memory (inline leaves + arena) implementation.

#include <gtest/gtest.h>

#include <set>

#include "aig/aig.hpp"
#include "aig/aig_sim.hpp"
#include "cut/cut_enum.hpp"
#include "common/rng.hpp"

namespace t1map {
namespace {

std::vector<std::uint32_t> to_vec(const CutLeaves& leaves) {
  return {leaves.begin(), leaves.end()};
}

/// Random AIG with `num_pis` inputs and `num_ands` AND nodes.
Aig random_aig(Rng& rng, int num_pis, int num_ands) {
  Aig aig;
  std::vector<Lit> sigs;
  for (int i = 0; i < num_pis; ++i) sigs.push_back(aig.create_pi());
  for (int i = 0; i < num_ands; ++i) {
    const Lit x = sigs[rng.below(sigs.size())];
    const Lit y = sigs[rng.below(sigs.size())];
    sigs.push_back(
        aig.create_and(lit_notif(x, rng.flip()), lit_notif(y, rng.flip())));
  }
  aig.create_po(sigs.back());
  return aig;
}

TEST(CutEnum, MergeLeaves) {
  CutLeaves out;
  EXPECT_TRUE(merge_leaves(CutLeaves{1, 3}, CutLeaves{2, 3}, 3, out));
  EXPECT_EQ(to_vec(out), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_FALSE(merge_leaves(CutLeaves{1, 2}, CutLeaves{3, 4}, 3, out));
  EXPECT_TRUE(merge_leaves(CutLeaves{}, CutLeaves{5}, 3, out));
  EXPECT_EQ(to_vec(out), (std::vector<std::uint32_t>{5}));
}

TEST(CutEnum, LeavesSubset) {
  EXPECT_TRUE(leaves_subset(CutLeaves{1, 3}, CutLeaves{1, 2, 3}));
  EXPECT_FALSE(leaves_subset(CutLeaves{1, 4}, CutLeaves{1, 2, 3}));
  EXPECT_TRUE(leaves_subset(CutLeaves{}, CutLeaves{1}));
  EXPECT_FALSE(leaves_subset(CutLeaves{1, 2, 3}, CutLeaves{1, 2}));
}

TEST(CutEnum, SignatureIsUnionOfLeafBits) {
  Rng rng(11);
  const Aig aig = random_aig(rng, 8, 60);
  const auto cuts = enumerate_cuts(aig, CutParams{4, 16});
  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    for (const Cut& cut : cuts[n]) {
      std::uint64_t sig = 0;
      for (const std::uint32_t l : cut.leaves) sig |= leaf_sig(l);
      EXPECT_EQ(cut.sig, sig) << "node " << n;
    }
  }
}

TEST(CutEnum, FullAdderCutsFound) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  const Lit c = aig.create_pi();
  const Lit sum = aig.create_xor3(a, b, c);
  const Lit carry = aig.create_maj3(a, b, c);
  aig.create_po(sum);
  aig.create_po(carry);

  const auto cuts = enumerate_cuts(aig, CutParams{3, 16});

  // The sum root must own a 3-leaf cut {a,b,c} computing XOR3, the carry
  // root one computing MAJ3.
  const std::vector<std::uint32_t> leaves = {lit_node(a), lit_node(b),
                                             lit_node(c)};
  bool found_xor3 = false;
  for (const Cut& cut : cuts[lit_node(sum)]) {
    if (cut.leaves == std::span<const std::uint32_t>(leaves)) {
      // PO may be complemented; function is over positive node polarity.
      const Tt expect =
          lit_is_complemented(sum) ? ~tts::xor3() : tts::xor3();
      EXPECT_EQ(cut.tt, expect);
      found_xor3 = true;
    }
  }
  EXPECT_TRUE(found_xor3);

  bool found_maj3 = false;
  for (const Cut& cut : cuts[lit_node(carry)]) {
    if (cut.leaves == std::span<const std::uint32_t>(leaves)) {
      const Tt expect =
          lit_is_complemented(carry) ? ~tts::maj3() : tts::maj3();
      EXPECT_EQ(cut.tt, expect);
      found_maj3 = true;
    }
  }
  EXPECT_TRUE(found_maj3);
}

TEST(CutEnum, TrivialCutAlwaysFirst) {
  Aig aig;
  const Lit a = aig.create_pi();
  const Lit b = aig.create_pi();
  const Lit x = aig.create_and(a, b);
  aig.create_po(x);
  const auto cuts = enumerate_cuts(aig);
  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    ASSERT_FALSE(cuts[n].empty());
    EXPECT_TRUE(cuts[n][0].is_trivial(n));
  }
}

// The invariants every retained cut set must satisfy, for any k: leaf count
// bounded, leaves sorted, tt arity matches, no duplicate leaf sets, no
// retained cut dominated by another, trivial cut first.
TEST(CutEnum, StructuralInvariantsOnRandomCircuits) {
  Rng rng(5);
  for (int trial = 0; trial < 4; ++trial) {
    const Aig aig = random_aig(rng, 8, 60);
    for (const int k : {2, 3, 4}) {
      const auto cuts = enumerate_cuts(aig, CutParams{k, 12});
      ASSERT_EQ(cuts.size(), aig.num_nodes());
      for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
        ASSERT_FALSE(cuts[n].empty());
        EXPECT_TRUE(cuts[n][0].is_trivial(n));
        std::set<std::vector<std::uint32_t>> seen;
        for (const Cut& cut : cuts[n]) {
          EXPECT_GE(cut.leaves.size(), 1u);
          EXPECT_LE(cut.leaves.size(), static_cast<std::size_t>(k));
          EXPECT_TRUE(std::is_sorted(cut.leaves.begin(), cut.leaves.end()));
          EXPECT_EQ(cut.tt.num_vars(), static_cast<int>(cut.leaves.size()));
          // No duplicate leaf sets anywhere in the node's cut set.
          EXPECT_TRUE(seen.insert(to_vec(cut.leaves)).second)
              << "duplicate leaf set at node " << n;
        }
        // Dominance: no retained cut's leaves are a strict subset of
        // another's (the trivial cut can never be dominated).
        for (std::size_t i = 1; i < cuts[n].size(); ++i) {
          for (std::size_t j = 1; j < cuts[n].size(); ++j) {
            if (i == j) continue;
            EXPECT_FALSE(
                !(cuts[n][i].leaves == cuts[n][j].leaves) &&
                leaves_subset(cuts[n][i].leaves, cuts[n][j].leaves))
                << "node " << n << ": cut " << j << " dominated by " << i;
          }
        }
      }
    }
  }
}

TEST(CutEnum, CutFunctionsMatchSimulation) {
  // For every cut of every node: evaluating the cut tt on the leaves' value
  // words must reproduce the node's value word.  Run at k = 3 and k = 4.
  Rng rng(17);
  for (const int k : {3, 4}) {
    const Aig aig = random_aig(rng, 6, 40);
    std::vector<std::uint64_t> pi_words(aig.num_pis());
    for (auto& w : pi_words) w = rng.next();
    const auto value = simulate_nodes(aig, pi_words);

    const auto cuts = enumerate_cuts(aig, CutParams{k, 16});
    long checked = 0;
    for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
      for (const Cut& cut : cuts[n]) {
        if (cut.is_trivial(n)) continue;
        for (int bit = 0; bit < 64; ++bit) {
          std::uint64_t point = 0;
          for (std::size_t l = 0; l < cut.leaves.size(); ++l) {
            if ((value[cut.leaves[l]] >> bit) & 1u) point |= (1ull << l);
          }
          ASSERT_EQ(cut.tt.bit(point), ((value[n] >> bit) & 1u) != 0)
              << "k " << k << " node " << n << " bit " << bit;
        }
        ++checked;
      }
    }
    EXPECT_GT(checked, 50);
  }
}

TEST(CutEnum, ExpandTableMatchesExpandToLeaves) {
  // Every target size the table covers, every subset of target positions
  // the source leaves can occupy, and every source truth table.
  const std::uint32_t all_leaves[] = {10, 20, 30};
  for (int n = 1; n <= detail::kExpandTableLeaves; ++n) {
    const std::span<const std::uint32_t> to(all_leaves,
                                            static_cast<std::size_t>(n));
    for (unsigned mask = 0; mask < (1u << n); ++mask) {
      std::vector<std::uint32_t> from;
      for (int p = 0; p < n; ++p) {
        if ((mask >> p) & 1u) from.push_back(all_leaves[p]);
      }
      const int m = static_cast<int>(from.size());
      for (std::uint64_t bits = 0; bits < (1ull << (1u << m)); ++bits) {
        const Tt tt(m, bits);
        const Tt want = expand_to_leaves(tt, from, to);
        EXPECT_EQ(Tt(n, detail::kExpandTable[n][mask][bits]), want)
            << "n=" << n << " mask=" << mask << " bits=" << bits;
        // The enumerator's entry point agrees too (it short-circuits the
        // equal-size case, which the table covers as the identity).
        Cut cut;
        for (const std::uint32_t leaf : from) cut.leaves.push_back(leaf);
        cut.tt = tt;
        CutLeaves target;
        for (const std::uint32_t leaf : to) target.push_back(leaf);
        EXPECT_EQ(detail::expand_cut_tt(cut, target), want);
      }
    }
  }
}

TEST(CutEnum, FourLeafTargetsFallBackToExpandToLeaves) {
  const std::uint32_t to_ids[] = {1, 2, 3, 4};
  const std::uint32_t from_ids[] = {2, 4};
  Cut cut;
  for (const std::uint32_t leaf : from_ids) cut.leaves.push_back(leaf);
  cut.tt = tts::xor2();
  CutLeaves target;
  for (const std::uint32_t leaf : to_ids) target.push_back(leaf);
  EXPECT_EQ(detail::expand_cut_tt(cut, target),
            Tt::var(4, 1) ^ Tt::var(4, 3));
}

}  // namespace
}  // namespace t1map
