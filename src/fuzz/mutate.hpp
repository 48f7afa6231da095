/// \file mutate.hpp
/// \brief Seeded small-edit AIG mutator — the near-duplicate generator of
/// the serve benchmark's edit requests (perfbench/src/serve_workload.cpp).
///
/// `mutate_aig` applies a handful of single-gate edits to a source AIG and
/// rebuilds it through the normal strashing constructor, so the mutant is a
/// well-formed AIG that shares almost all of its structure with the source.
/// Three edit kinds, chosen uniformly:
///
///   * toggle the polarity of one fanin edge of a random AND;
///   * rewire one fanin of a random AND to a random earlier node
///     (id order keeps the graph acyclic by construction);
///   * AND one PO driver with a random existing signal (grows the netlist
///     by one gate and retargets that PO).
///
/// Mutants are *not* functionally equivalent to the source — they exist to
/// exercise re-runs after a small edit: a near-duplicate request whose
/// digest misses the cache.

#pragma once

#include <cstdint>

#include "aig/aig.hpp"

namespace t1map::fuzz {

struct MutateOptions {
  std::uint64_t seed = 1;
  /// Number of single-gate edits to apply.
  int edits = 1;
};

/// Returns a mutant of `src` (PI/PO interface and names preserved; one PO's
/// driver may gain a gate).  Deterministic in (src, options).
Aig mutate_aig(const Aig& src, const MutateOptions& options);

}  // namespace t1map::fuzz
