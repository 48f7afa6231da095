/// \file cec.hpp
/// \brief Combinational equivalence checking via SAT miters.
///
/// Builds a miter between two designs over shared PI variables and asks the
/// CDCL solver whether any output pair can differ.  UNSAT proves
/// equivalence.  This complements random simulation: the flow's tests run
/// both on every transformation.
///
/// The check is a serial SAT sweep (Kuehlmann & Krohm, DAC'97; Mishchenko
/// et al., ICCAD'06) on one incremental solver:
///   1. encode the miter once, keeping a literal per node of both designs;
///   2. simulate both designs on a few fixed-seed 64-pattern words and
///      group nodes whose signatures agree up to complement;
///   3. walk the second design's nodes in topological order and prove each
///      against the earliest earlier member of its group under a fixed
///      per-pair conflict cap: a proven pair adds its two implied binary
///      clauses, a refuted pair's model splits the groups, an unknown pair
///      is skipped;
///   4. refute the miter output pair by output pair.
/// The sweep only adds implied clauses and takes no hint from the mapper.
/// With an unlimited budget the verdict, the failing output and the
/// counterexample are therefore those of the plain per-output check.

#pragma once

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "common/worker_pool.hpp"  // CecOptions::pool (ignored)
#include "sat/solver.hpp"
#include "sfq/netlist.hpp"

namespace t1map::sat {

struct CecResult {
  enum class Verdict { kEquivalent, kNotEquivalent, kUnknown };
  Verdict verdict = Verdict::kUnknown;
  /// For kNotEquivalent: one distinguishing input assignment (per PI),
  /// derived from a fresh deterministic re-solve of the failing pair so it
  /// does not depend on which solver (with whatever learned-clause state)
  /// discovered the inequivalence.
  std::vector<bool> counterexample;
  /// The PO index the verdict hinges on: for kNotEquivalent the *lowest*
  /// differing output; for kUnknown the output whose proof exhausted the
  /// conflict budget; -1 for kEquivalent.
  std::int32_t failing_output = -1;
  /// Total conflicts consumed by the sweep and the per-output solves.
  std::int64_t conflicts = 0;
  /// Internal node pairs the sweep proved equivalent and merged.
  std::uint32_t proven_pairs = 0;
};

/// Tuning of one equivalence check.
struct CecOptions {
  /// Shared conflict budget across the whole check (a single countdown over
  /// the sweep and all output pairs); < 0 = unlimited.  The sweep stops
  /// once it reaches 0, and the output pair that exhausts it is reported.
  std::int64_t conflict_limit = -1;
  /// Ignored; kept for perfbench.  The check is serial.
  WorkerPool* pool = nullptr;
  /// Ignored; kept for perfbench.
  std::vector<Solver>* worker_solvers = nullptr;
  /// Ignored; kept for perfbench.
  bool portfolio = false;
};

/// AIG vs. SFQ netlist.  `conflict_limit < 0`: no limit.
CecResult check_equivalence(const Aig& aig, const sfq::Netlist& ntk,
                            std::int64_t conflict_limit = -1);

/// As above, but encodes into the caller-owned `solver` (reset first), so a
/// long-lived solver amortizes its clause-arena allocations across many
/// checks.  The verdict is identical to the fresh-solver overload.
CecResult check_equivalence(const Aig& aig, const sfq::Netlist& ntk,
                            std::int64_t conflict_limit, Solver& solver);

/// Fully-optioned AIG-vs-netlist check.
CecResult check_equivalence(const Aig& aig, const sfq::Netlist& ntk,
                            const CecOptions& options, Solver& solver);

/// AIG vs. AIG.
CecResult check_equivalence(const Aig& a, const Aig& b,
                            std::int64_t conflict_limit = -1);

/// Fully-optioned AIG-vs-AIG check.
CecResult check_equivalence(const Aig& a, const Aig& b,
                            const CecOptions& options, Solver& solver);

/// Encodes a netlist into the solver with the given PI literals; returns
/// one literal per PO.
std::vector<Lit> encode_netlist(Solver& solver, const sfq::Netlist& ntk,
                                std::span<const Lit> pi_lits);

}  // namespace t1map::sat
