#include "aig/aig_sim.hpp"

namespace t1map {

std::vector<std::uint64_t> simulate_nodes(
    const Aig& aig, std::span<const std::uint64_t> pi_words) {
  std::vector<std::uint64_t> value;
  simulate_nodes_into(aig, pi_words, value);
  return value;
}

void simulate_nodes_into(const Aig& aig,
                         std::span<const std::uint64_t> pi_words,
                         std::vector<std::uint64_t>& value) {
  T1MAP_REQUIRE(pi_words.size() == aig.num_pis(),
                "simulate: need one word per PI");
  value.assign(aig.num_nodes(), 0);
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    value[aig.pis()[i]] = pi_words[i];
  }
  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    if (!aig.is_and(n)) continue;
    const Lit f0 = aig.fanin0(n);
    const Lit f1 = aig.fanin1(n);
    const std::uint64_t a =
        lit_is_complemented(f0) ? ~value[lit_node(f0)] : value[lit_node(f0)];
    const std::uint64_t b =
        lit_is_complemented(f1) ? ~value[lit_node(f1)] : value[lit_node(f1)];
    value[n] = a & b;
  }
}

std::vector<std::uint64_t> simulate(const Aig& aig,
                                    std::span<const std::uint64_t> pi_words) {
  const auto value = simulate_nodes(aig, pi_words);
  std::vector<std::uint64_t> out;
  out.reserve(aig.num_pos());
  for (const Lit po : aig.pos()) {
    const std::uint64_t v = value[lit_node(po)];
    out.push_back(lit_is_complemented(po) ? ~v : v);
  }
  return out;
}

std::vector<Tt> exhaustive_po_tts(const Aig& aig) {
  const int n = static_cast<int>(aig.num_pis());
  T1MAP_REQUIRE(n <= Tt::kMaxVars, "exhaustive simulation limited to 6 PIs");
  std::vector<std::uint64_t> words(aig.num_pis());
  for (int i = 0; i < n; ++i) words[i] = Tt::var(n, i).bits();
  const auto po_words = simulate(aig, words);
  std::vector<Tt> tts;
  tts.reserve(po_words.size());
  for (const std::uint64_t w : po_words) tts.emplace_back(n, w);
  return tts;
}

RandomSimResult random_simulate(const Aig& aig, int rounds,
                                std::uint64_t seed) {
  Rng rng(seed);
  RandomSimResult result;
  result.pi_words.reserve(rounds);
  result.po_words.reserve(rounds);
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::uint64_t> pi_words(aig.num_pis());
    for (auto& w : pi_words) w = rng.next();
    result.po_words.push_back(simulate(aig, pi_words));
    result.pi_words.push_back(std::move(pi_words));
  }
  return result;
}

}  // namespace t1map
