/// \file aig_sim.hpp
/// \brief 64-way bit-parallel simulation of AIGs.
///
/// One `std::uint64_t` word per signal simulates 64 independent input
/// patterns at once.  This backs functional verification of generators
/// (adders vs. reference arithmetic) and random-simulation equivalence
/// between AIGs and mapped SFQ netlists.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "common/rng.hpp"

namespace t1map {

/// Simulates one 64-pattern word per PI; returns one word per PO.
std::vector<std::uint64_t> simulate(const Aig& aig,
                                    std::span<const std::uint64_t> pi_words);

/// As `simulate`, but returns the value word of every node (index = node id);
/// useful for cut-function cross-checks.
std::vector<std::uint64_t> simulate_nodes(
    const Aig& aig, std::span<const std::uint64_t> pi_words);

/// As `simulate_nodes`, into a caller-owned buffer (resized to
/// `aig.num_nodes()`), so repeated simulations reuse one allocation.
void simulate_nodes_into(const Aig& aig,
                         std::span<const std::uint64_t> pi_words,
                         std::vector<std::uint64_t>& value);

/// Exhaustive PO truth tables for AIGs with at most 6 PIs.
std::vector<Tt> exhaustive_po_tts(const Aig& aig);

/// Draws `rounds` random 64-pattern words and returns PI/PO word streams;
/// `pi_words[r]` is the word vector of round r.  Deterministic in `seed`.
struct RandomSimResult {
  std::vector<std::vector<std::uint64_t>> pi_words;
  std::vector<std::vector<std::uint64_t>> po_words;
};
RandomSimResult random_simulate(const Aig& aig, int rounds,
                                std::uint64_t seed);

}  // namespace t1map
