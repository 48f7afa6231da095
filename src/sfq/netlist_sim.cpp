#include "sfq/netlist_sim.hpp"

#include "aig/aig_sim.hpp"
#include "common/rng.hpp"

namespace t1map::sfq {

namespace {

/// Simulates one stimulus through both designs into `ws`'s node buffers and
/// compares the PO words on the `live` pattern bits.  The stimulus is
/// borrowed, not consumed: only a mismatch copies it out, so one
/// caller-owned buffer serves every round.
std::optional<Mismatch> compare_round(const Aig& aig, const Netlist& ntk,
                                      const std::vector<std::uint64_t>&
                                          pi_words,
                                      std::uint64_t live, SimScratch& ws) {
  simulate_nodes_into(aig, pi_words, ws.aig_values);
  ntk.simulate_nodes_into(pi_words, ws.ntk_values);
  const auto ntk_pos = ntk.pos();
  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    const Lit po = aig.pos()[i];
    const std::uint64_t a = ws.aig_values[lit_node(po)];
    const std::uint64_t aig_out = lit_is_complemented(po) ? ~a : a;
    if (((aig_out ^ ws.ntk_values[ntk_pos[i].driver]) & live) != 0) {
      return Mismatch{i, pi_words};
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<Mismatch> find_sim_mismatch(const Aig& aig, const Netlist& ntk,
                                          int rounds, std::uint64_t seed,
                                          SimScratch* scratch) {
  T1MAP_REQUIRE(aig.num_pis() == ntk.num_pis(),
                "equivalence check: PI count mismatch");
  T1MAP_REQUIRE(aig.num_pos() == ntk.num_pos(),
                "equivalence check: PO count mismatch");

  SimScratch local;
  SimScratch& ws = scratch != nullptr ? *scratch : local;
  std::vector<std::uint64_t>& words = ws.pi_words;
  const std::uint32_t n = aig.num_pis();
  if (n <= Tt::kMaxVars) {
    // Exhaustive: encode all 2^n assignments in projection words.
    words.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      words[i] = Tt::var(static_cast<int>(n), static_cast<int>(i)).bits();
    }
    const std::uint64_t live = (n == 6) ? ~0ull : (1ull << (1u << n)) - 1;
    return compare_round(aig, ntk, words, live, ws);
  }

  constexpr std::uint64_t kAll = ~0ull;
  words.assign(n, 0);
  Rng rng(seed);
  for (int r = 0; r < rounds; ++r) {
    for (auto& w : words) w = rng.next();
    if (auto m = compare_round(aig, ntk, words, kAll, ws)) return m;
  }
  // A few structured patterns: all-zero, all-one, walking ones.
  words.assign(n, 0);
  if (auto m = compare_round(aig, ntk, words, kAll, ws)) return m;
  words.assign(n, ~0ull);
  if (auto m = compare_round(aig, ntk, words, kAll, ws)) return m;
  for (std::uint32_t block = 0; block < n; block += 64) {
    words.assign(n, 0);
    for (std::uint32_t i = block; i < std::min(block + 64, n); ++i) {
      words[i] = 1ull << (i - block);
    }
    if (auto m = compare_round(aig, ntk, words, kAll, ws)) return m;
  }
  return std::nullopt;
}

bool random_equivalent(const Aig& aig, const Netlist& ntk, int rounds,
                       std::uint64_t seed, SimScratch* scratch) {
  return !find_sim_mismatch(aig, ntk, rounds, seed, scratch).has_value();
}

}  // namespace t1map::sfq
