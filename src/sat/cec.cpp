#include "sat/cec.hpp"

#include <algorithm>
#include <array>
#include <functional>

#include "aig/aig_sim.hpp"
#include "common/rng.hpp"
#include "sat/cnf.hpp"

namespace t1map::sat {

namespace {

/// Random 64-pattern simulation words that seed the sweep's classes.
constexpr int kSweepSimWords = 4;
constexpr std::uint64_t kSweepSimSeed = 0x53574545500001ull;
/// Conflicts one internal pair may spend (both directions together) before
/// the sweep skips it; such pairs are left to the output proofs.
constexpr std::int64_t kSweepPairConflicts = 1000;

/// An encoded miter: shared PI literals, one XOR difference literal per
/// output pair, and the SAT literal of every sweep member.  Encoding is
/// deterministic, so re-encoding into another solver yields identical
/// literal numbering.
struct Miter {
  std::vector<Lit> pis;
  std::vector<std::array<Lit, 2>> outs;  // per output pair: (a, b)
  std::vector<Lit> diffs;                // per output pair: a XOR b
  /// Sweep members: every node of the first design (partners only), then
  /// the candidate nodes of the second design in topological order.
  std::vector<Lit> members;
  std::size_t num_refs = 0;
};

/// Re-runnable encoder: resets the target solver and builds the miter CNF.
/// The canonical counterexample re-encodes into a fresh solver.
using MiterEncoder = std::function<Miter(Solver&)>;

/// One value word per sweep member (in `Miter::members` order) under the
/// given per-PI pattern words.
using MemberSimulator = std::function<std::vector<std::uint64_t>(
    std::span<const std::uint64_t>)>;

/// Adds one XOR difference literal per output pair to the miter.
void add_outputs(Solver& solver, Miter& m, std::span<const Lit> out_a,
                 std::span<const Lit> out_b) {
  T1MAP_REQUIRE(out_a.size() == out_b.size(), "miter: PO count mismatch");
  for (std::size_t i = 0; i < out_a.size(); ++i) {
    const Lit d = fresh_lit(solver);
    encode_xor2(solver, d, out_a[i], out_b[i]);
    m.outs.push_back({out_a[i], out_b[i]});
    m.diffs.push_back(d);
  }
}

/// Union-find over literals that the sweep proved equivalent.  `find`
/// returns the representative literal with the argument's polarity folded
/// in, so two literals are proven equal iff their `find`s are equal.
class ProvenEqual {
 public:
  explicit ProvenEqual(int num_vars) : parent_(num_vars) {
    for (int v = 0; v < num_vars; ++v) parent_[v] = mk_lit(v);
  }

  Lit find(Lit l) {
    Lit& p = parent_[lit_var(l)];  // the literal equal to var(l), positive
    if (lit_var(p) != lit_var(l)) p = find(p);
    return lit_negated(l) ? lit_negate(p) : p;
  }

  void merge(Lit a, Lit b) {
    const Lit ra = find(a);
    const Lit rb = find(b);
    if (lit_var(ra) == lit_var(rb)) return;
    parent_[lit_var(ra)] = lit_negated(ra) ? lit_negate(rb) : rb;
  }

 private:
  std::vector<Lit> parent_;
};

/// Netlist CNF with one literal per node (0 for T1 cores, whose taps carry
/// the functions).  BUF/DFF share their fanin's literal, NOT its negation.
std::vector<Lit> encode_netlist_nodes(Solver& solver, const sfq::Netlist& ntk,
                                      std::span<const Lit> pi_lits) {
  using sfq::CellKind;
  T1MAP_REQUIRE(pi_lits.size() == ntk.num_pis(),
                "encode_netlist: wrong number of PI literals");

  std::vector<Lit> node_lit(ntk.num_nodes(), 0);
  std::uint32_t pi_index = 0;
  for (std::uint32_t id = 0; id < ntk.num_nodes(); ++id) {
    const CellKind k = ntk.kind(id);
    switch (k) {
      case CellKind::kPi:
        node_lit[id] = pi_lits[pi_index++];
        break;
      case CellKind::kConst0:
      case CellKind::kConst1: {
        const Lit l = fresh_lit(solver);
        solver.add_clause({k == CellKind::kConst1 ? l : lit_negate(l)});
        node_lit[id] = l;
        break;
      }
      case CellKind::kBuf:
      case CellKind::kDff:
        node_lit[id] = node_lit[ntk.fanins(id)[0]];
        break;
      case CellKind::kNot:
        node_lit[id] = lit_negate(node_lit[ntk.fanins(id)[0]]);
        break;
      case CellKind::kT1:
        node_lit[id] = 0;  // no value; taps encode the functions
        break;
      default: {
        const Lit out = fresh_lit(solver);
        std::vector<Lit> ins;
        if (ntk.is_tap(id)) {
          for (const std::uint32_t c : ntk.fanins(ntk.fanins(id)[0])) {
            ins.push_back(node_lit[c]);
          }
        } else {
          for (const std::uint32_t f : ntk.fanins(id)) {
            ins.push_back(node_lit[f]);
          }
        }
        encode_tt(solver, out, sfq::cell_tt(k), ins);
        node_lit[id] = out;
        break;
      }
    }
  }
  return node_lit;
}

/// Netlist nodes the sweep tries to merge: every node with its own SAT
/// variable except PIs and constants (BUF, DFF and NOT reuse a literal;
/// T1 cores have none).
std::vector<std::uint32_t> netlist_candidates(const sfq::Netlist& ntk) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t id = 0; id < ntk.num_nodes(); ++id) {
    const sfq::CellKind k = ntk.kind(id);
    if (ntk.is_pi(id) || ntk.is_const(id) || k == sfq::CellKind::kBuf ||
        k == sfq::CellKind::kDff || k == sfq::CellKind::kNot || ntk.is_t1(id)) {
      continue;
    }
    ids.push_back(id);
  }
  return ids;
}

/// Candidate equivalence classes over the sweep members: members whose
/// simulation signatures agree up to complement.  Classes only split; a
/// member left alone in its class is dropped, since it can never be
/// anyone's partner again.
class SweepClasses {
 public:
  SweepClasses(const MemberSimulator& simulate, std::size_t num_pis)
      : simulate_(simulate) {
    Rng rng(kSweepSimSeed);
    std::vector<std::uint64_t> pi_words(num_pis);
    std::vector<std::uint64_t> sig;  // member-major, kSweepSimWords each
    for (int w = 0; w < kSweepSimWords; ++w) {
      for (std::uint64_t& word : pi_words) word = rng.next();
      const std::vector<std::uint64_t> values = simulate_(pi_words);
      if (w == 0) {
        sig.resize(values.size() * kSweepSimWords);
        flipped_.resize(values.size());
        for (std::size_t m = 0; m < values.size(); ++m) {
          flipped_[m] = values[m] & 1u;
        }
      }
      for (std::size_t m = 0; m < values.size(); ++m) {
        sig[m * kSweepSimWords + w] = flipped_[m] ? ~values[m] : values[m];
      }
    }

    std::vector<std::uint32_t> order(flipped_.size());
    for (std::uint32_t m = 0; m < order.size(); ++m) order[m] = m;
    const auto words = [&sig](std::uint32_t m) {
      return sig.begin() + static_cast<std::ptrdiff_t>(m) * kSweepSimWords;
    };
    const auto less = [&words](std::uint32_t a, std::uint32_t b) {
      return std::lexicographical_compare(words(a), words(a) + kSweepSimWords,
                                          words(b), words(b) + kSweepSimWords);
    };
    std::stable_sort(order.begin(), order.end(), less);
    class_of_.assign(order.size(), kNone);
    for (std::size_t i = 0; i < order.size();) {
      std::size_t j = i + 1;
      while (j < order.size() && !less(order[i], order[j])) ++j;
      if (j - i > 1) {
        add_class({order.begin() + static_cast<std::ptrdiff_t>(i),
                   order.begin() + static_cast<std::ptrdiff_t>(j)});
      }
      i = j;
    }
  }

  /// The earliest member of `m`'s class if it precedes `m`, else kNone.
  std::uint32_t partner(std::uint32_t m) const {
    if (class_of_[m] == kNone) return kNone;
    const std::uint32_t first = classes_[class_of_[m]].front();
    return first == m ? kNone : first;
  }

  /// Whether `a` and `b` agree on the simulated patterns only up to
  /// complement.
  bool complemented(std::uint32_t a, std::uint32_t b) const {
    return flipped_[a] != flipped_[b];
  }

  /// Splits every class on one more input pattern (one bool per PI).
  void refine(const std::vector<bool>& pattern) {
    std::vector<std::uint64_t> pi_words(pattern.size());
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      pi_words[i] = pattern[i] ? ~0ull : 0;
    }
    const std::vector<std::uint64_t> values = simulate_(pi_words);
    const auto bit = [&](std::uint32_t m) {
      return ((values[m] & 1u) != 0) != flipped_[m];
    };
    const std::size_t num_classes = classes_.size();
    std::vector<std::uint32_t> ones;
    for (std::size_t c = 0; c < num_classes; ++c) {
      std::vector<std::uint32_t>& members = classes_[c];
      if (members.size() < 2) continue;
      ones.clear();
      std::erase_if(members, [&](std::uint32_t m) {
        if (!bit(m)) return false;
        ones.push_back(m);
        return true;
      });
      if (members.size() == 1) {
        class_of_[members.front()] = kNone;
        members.clear();
      }
      if (ones.size() == 1) {
        class_of_[ones.front()] = kNone;
      } else if (ones.size() > 1) {
        add_class(ones);
      }
    }
  }

  static constexpr std::uint32_t kNone = ~0u;

 private:
  void add_class(std::vector<std::uint32_t> members) {
    const auto id = static_cast<std::uint32_t>(classes_.size());
    for (const std::uint32_t m : members) class_of_[m] = id;
    classes_.push_back(std::move(members));
  }

  const MemberSimulator& simulate_;
  std::vector<std::uint8_t> flipped_;  // signature complemented to normalize
  std::vector<std::uint32_t> class_of_;
  std::vector<std::vector<std::uint32_t>> classes_;  // members ascending
};

/// Solves under `assumptions` with at most `cap` conflicts (< 0 = no cap),
/// spending them from the shared `budget` (< 0 = unlimited).
Solver::Result budgeted_solve(Solver& solver, std::span<const Lit> assumptions,
                              std::int64_t cap, std::int64_t& budget) {
  std::int64_t limit = cap;  // < 0: no cap
  if (budget >= 0 && (limit < 0 || budget < limit)) limit = budget;
  const std::int64_t before = solver.num_conflicts();
  const Solver::Result r = solver.solve(assumptions, limit);
  if (budget >= 0) {
    budget = std::max<std::int64_t>(
        0, budget - (solver.num_conflicts() - before));
  }
  return r;
}

/// Proves `a == b` with two incremental solves that share a cap of
/// `kSweepPairConflicts` conflicts.  kUnsat: proven; kSat: refuted, and the
/// model tells them apart; kUnknown: the cap or the budget ran out.
Solver::Result prove_equal(Solver& solver, Lit a, Lit b,
                           std::int64_t& budget) {
  std::int64_t pair_left = kSweepPairConflicts;
  for (const std::array<Lit, 2> assumption :
       {std::array<Lit, 2>{a, lit_negate(b)},
        std::array<Lit, 2>{lit_negate(a), b}}) {
    if (budget == 0 || pair_left == 0) return Solver::Result::kUnknown;
    const std::int64_t before = solver.num_conflicts();
    const Solver::Result r =
        budgeted_solve(solver, assumption, pair_left, budget);
    pair_left -= solver.num_conflicts() - before;
    if (r != Solver::Result::kUnsat) return r;
  }
  return Solver::Result::kUnsat;
}

/// SAT sweep: walks the candidate members in topological order and proves
/// each against the earliest earlier member of its class.  A proven pair
/// gets its two implied binary clauses, so later proofs (and the output
/// proofs) propagate through the merge; a refuted pair's model splits the
/// classes; an unknown pair is skipped.  Stops when `budget` reaches 0.
/// Records each merge in `proven_equal` and returns their number.
std::uint32_t sweep(Solver& solver, const Miter& m,
                    const MemberSimulator& simulate, std::int64_t& budget,
                    ProvenEqual& proven_equal) {
  if (budget == 0 || m.members.size() <= m.num_refs) return 0;
  SweepClasses classes(simulate, m.pis.size());
  std::uint32_t proven = 0;
  std::vector<bool> pattern(m.pis.size());
  for (auto c = static_cast<std::uint32_t>(m.num_refs);
       c < m.members.size() && budget != 0; ++c) {
    for (;;) {
      const std::uint32_t p = classes.partner(c);
      if (p == SweepClasses::kNone) break;
      const Lit a = m.members[c];
      const Lit b = classes.complemented(c, p) ? lit_negate(m.members[p])
                                               : m.members[p];
      const Solver::Result r = prove_equal(solver, a, b, budget);
      if (r == Solver::Result::kUnsat) {
        solver.add_clause({lit_negate(a), b});
        solver.add_clause({a, lit_negate(b)});
        proven_equal.merge(a, b);
        ++proven;
        break;
      }
      if (r == Solver::Result::kUnknown) break;
      for (std::size_t i = 0; i < m.pis.size(); ++i) {
        pattern[i] = solver.model_value(lit_var(m.pis[i]));
      }
      classes.refine(pattern);  // separates c from p; try its new class
    }
  }
  return proven;
}

/// Distinguishing input assignment for pair `target`, re-derived on a fresh
/// solver from the plain miter.  Which *model* a SAT solver returns depends
/// on its entire search history (including the sweep's merges); routing
/// every counterexample through this one deterministic solve keeps it
/// independent of how the inequivalence was found.
std::vector<bool> canonical_counterexample(const MiterEncoder& encode,
                                           std::size_t target) {
  Solver solver;
  const Miter m = encode(solver);
  const Lit assumption[1] = {m.diffs[target]};
  const Solver::Result r = solver.solve(assumption);
  T1MAP_REQUIRE(r == Solver::Result::kSat,
                "CEC: counterexample re-solve did not reproduce SAT");
  std::vector<bool> cex;
  cex.reserve(m.pis.size());
  for (const Lit p : m.pis) cex.push_back(solver.model_value(lit_var(p)));
  return cex;
}

/// Sweeps the miter, then refutes it output pair by output pair on the same
/// solver, sharing one CNF and all learned clauses incrementally.  An output
/// pair the sweep merged is equivalent without a solve; a pair sharing one
/// literal is still solved, so a zero budget checks exactly as the plain
/// per-output loop does.  The conflict budget is a single shared countdown
/// over the whole check: the sweep spends from it first, each output pair
/// solves under whatever is left, and the pair that exhausts it is reported
/// in `failing_output`.
CecResult check_miter(const MiterEncoder& encode,
                      const MemberSimulator& simulate, Solver& solver,
                      std::int64_t conflict_limit) {
  const std::int64_t before_all = solver.num_conflicts();
  const Miter m = encode(solver);
  std::int64_t budget = conflict_limit;  // < 0: unlimited
  ProvenEqual proven_equal(solver.num_vars());
  CecResult result;
  result.proven_pairs = sweep(solver, m, simulate, budget, proven_equal);
  result.verdict = CecResult::Verdict::kEquivalent;
  for (std::size_t i = 0; i < m.diffs.size(); ++i) {
    const auto [a, b] = m.outs[i];
    if (a != b && proven_equal.find(a) == proven_equal.find(b)) continue;
    const Lit assumption[1] = {m.diffs[i]};
    const Solver::Result r = budgeted_solve(solver, assumption, -1, budget);
    if (r == Solver::Result::kUnsat) continue;  // this pair is equivalent
    result.failing_output = static_cast<std::int32_t>(i);
    if (r == Solver::Result::kSat) {
      result.verdict = CecResult::Verdict::kNotEquivalent;
      result.counterexample = canonical_counterexample(encode, i);
    } else {
      result.verdict = CecResult::Verdict::kUnknown;
    }
    break;
  }
  result.conflicts = solver.num_conflicts() - before_all;
  return result;
}

}  // namespace

std::vector<Lit> encode_netlist(Solver& solver, const sfq::Netlist& ntk,
                                std::span<const Lit> pi_lits) {
  const std::vector<Lit> node_lit = encode_netlist_nodes(solver, ntk, pi_lits);
  std::vector<Lit> pos;
  pos.reserve(ntk.num_pos());
  for (const auto& po : ntk.pos()) pos.push_back(node_lit[po.driver]);
  return pos;
}

CecResult check_equivalence(const Aig& aig, const sfq::Netlist& ntk,
                            std::int64_t conflict_limit) {
  Solver solver;
  return check_equivalence(aig, ntk, conflict_limit, solver);
}

CecResult check_equivalence(const Aig& aig, const sfq::Netlist& ntk,
                            std::int64_t conflict_limit, Solver& solver) {
  CecOptions options;
  options.conflict_limit = conflict_limit;
  return check_equivalence(aig, ntk, options, solver);
}

CecResult check_equivalence(const Aig& aig, const sfq::Netlist& ntk,
                            const CecOptions& options, Solver& solver) {
  T1MAP_REQUIRE(aig.num_pis() == ntk.num_pis(), "CEC: PI count mismatch");
  const std::vector<std::uint32_t> candidates = netlist_candidates(ntk);
  const MiterEncoder encode = [&](Solver& s) {
    s.reset();
    // Rough CNF size hint: one variable per node plus ~a dozen literals
    // each (3 ternary clauses per AND, up to 2^3 rows per mapped cell).
    const std::size_t nodes = aig.num_nodes() + ntk.num_nodes();
    s.reserve(static_cast<int>(nodes + aig.num_pos() + 1), 12 * nodes);
    Miter m;
    for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
      m.pis.push_back(fresh_lit(s));
    }
    const AigCnf cnf = encode_aig(s, aig, m.pis);
    const std::vector<Lit> ntk_lits = encode_netlist_nodes(s, ntk, m.pis);
    std::vector<Lit> ntk_pos;
    for (const auto& po : ntk.pos()) ntk_pos.push_back(ntk_lits[po.driver]);
    add_outputs(s, m, cnf.po_lits, ntk_pos);
    m.members = cnf.node_lit;
    m.num_refs = m.members.size();
    for (const std::uint32_t id : candidates) m.members.push_back(ntk_lits[id]);
    return m;
  };
  const MemberSimulator simulate = [&](std::span<const std::uint64_t> words) {
    std::vector<std::uint64_t> values = simulate_nodes(aig, words);
    const std::vector<std::uint64_t> ntk_values = ntk.simulate_nodes(words);
    for (const std::uint32_t id : candidates) values.push_back(ntk_values[id]);
    return values;
  };
  return check_miter(encode, simulate, solver, options.conflict_limit);
}

CecResult check_equivalence(const Aig& a, const Aig& b,
                            std::int64_t conflict_limit) {
  Solver solver;
  CecOptions options;
  options.conflict_limit = conflict_limit;
  return check_equivalence(a, b, options, solver);
}

CecResult check_equivalence(const Aig& a, const Aig& b,
                            const CecOptions& options, Solver& solver) {
  T1MAP_REQUIRE(a.num_pis() == b.num_pis(), "CEC: PI count mismatch");
  T1MAP_REQUIRE(a.num_pos() == b.num_pos(), "CEC: PO count mismatch");
  std::vector<std::uint32_t> candidates;  // b's AND nodes
  for (std::uint32_t n = 0; n < b.num_nodes(); ++n) {
    if (b.is_and(n)) candidates.push_back(n);
  }
  const MiterEncoder encode = [&](Solver& s) {
    s.reset();
    const std::size_t nodes = a.num_nodes() + b.num_nodes();
    s.reserve(static_cast<int>(nodes + a.num_pos() + 1), 12 * nodes);
    Miter m;
    for (std::uint32_t i = 0; i < a.num_pis(); ++i) {
      m.pis.push_back(fresh_lit(s));
    }
    const AigCnf cnf_a = encode_aig(s, a, m.pis);
    const AigCnf cnf_b = encode_aig(s, b, m.pis);
    add_outputs(s, m, cnf_a.po_lits, cnf_b.po_lits);
    m.members = cnf_a.node_lit;
    m.num_refs = m.members.size();
    for (const std::uint32_t n : candidates) {
      m.members.push_back(cnf_b.node_lit[n]);
    }
    return m;
  };
  const MemberSimulator simulate = [&](std::span<const std::uint64_t> words) {
    std::vector<std::uint64_t> values = simulate_nodes(a, words);
    const std::vector<std::uint64_t> b_values = simulate_nodes(b, words);
    for (const std::uint32_t n : candidates) values.push_back(b_values[n]);
    return values;
  };
  return check_miter(encode, simulate, solver, options.conflict_limit);
}

}  // namespace t1map::sat
