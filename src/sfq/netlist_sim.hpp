/// \file netlist_sim.hpp
/// \brief Functional cross-verification between AIGs and SFQ netlists.
///
/// Random 64-way-parallel simulation with matched PI ordering.  This is the
/// first line of defense for every transformation (mapping, T1 rewriting);
/// SAT-based equivalence (sat/cec.hpp) is the second.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "sfq/netlist.hpp"

namespace t1map::sfq {

/// A mismatch found by random simulation.
struct Mismatch {
  std::uint32_t po_index;
  std::vector<std::uint64_t> pi_words;  // stimulus word per PI
};

/// Reusable stimulus and node-value buffers.  Passing the same scratch to
/// many checks keeps one allocation of each alive across all of them (the
/// FlowEngine holds one per thread); results are unaffected.
struct SimScratch {
  std::vector<std::uint64_t> pi_words;
  std::vector<std::uint64_t> aig_values;  // one word per AIG node
  std::vector<std::uint64_t> ntk_values;  // one word per netlist node
};

/// Simulates `rounds` * 64 random patterns through both designs; returns the
/// first mismatch found, or nullopt when all patterns agree.  PI/PO counts
/// and order must match.
std::optional<Mismatch> find_sim_mismatch(const Aig& aig, const Netlist& ntk,
                                          int rounds, std::uint64_t seed,
                                          SimScratch* scratch = nullptr);

/// Convenience wrapper: true when no mismatch is found.  For designs with at
/// most 6 PIs the check is exhaustive regardless of `rounds`.
bool random_equivalent(const Aig& aig, const Netlist& ntk, int rounds = 64,
                       std::uint64_t seed = 1, SimScratch* scratch = nullptr);

}  // namespace t1map::sfq
