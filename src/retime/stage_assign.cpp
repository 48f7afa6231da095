#include "retime/stage_assign.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "common/csr.hpp"

namespace t1map::retime {

namespace {

using sfq::CellKind;
using sfq::Netlist;

constexpr int kNoStage = std::numeric_limits<int>::min();

/// Sanity band for stage values fed into sentinel-sensitive arithmetic:
/// anything outside is either the `kNoStage` sentinel leaking through or a
/// corrupted assignment, and offset/subtraction math on it would be signed
/// overflow (UB).  Real designs stay far below 2^30 stages.
constexpr int kMaxStage = 1 << 30;

/// Stage at which a fanin node's pulse is produced; kNoStage for constants
/// (their "pulses" are locally generated and need no balancing).
int producer_stage(const Netlist& ntk, const std::vector<int>& sigma,
                   std::uint32_t node) {
  if (ntk.is_const(node)) return kNoStage;
  return sigma[node];
}

/// Producer stages of T1 core t's three data inputs, constants at 0: they
/// still need a distinct arrival slot (eqs. 3 and 4).
std::array<int, 3> t1_producers(const Netlist& ntk,
                                const std::vector<int>& sigma,
                                std::uint32_t t) {
  std::array<int, 3> s{};
  const auto f = ntk.fanins(t);
  for (int j = 0; j < 3; ++j) {
    const int ps = producer_stage(ntk, sigma, f[j]);
    s[j] = (ps == kNoStage) ? 0 : ps;
  }
  return s;
}

/// Per-node consumer lists (regular cells and T1 cores; taps excluded
/// because they share the core's physical cell).  CSR-backed: two flat
/// arrays per relation instead of one heap vector per node.
struct Consumers {
  /// One T1 data-input reference: consuming core + input index.
  struct T1Pin {
    std::uint32_t node;
    std::uint8_t pin;
  };
  // For each node: regular consumers' node ids.
  Csr<std::uint32_t> regular;
  // For each node: T1 cores consuming it (with input index).
  Csr<T1Pin> t1;
  // Whether the node drives at least one PO.
  std::vector<std::uint8_t> drives_po;
};

Consumers build_consumers(const Netlist& ntk) {
  Consumers c;
  const std::uint32_t n = ntk.num_nodes();
  c.regular.build(n, [&](auto&& edge) {
    for (std::uint32_t v = 0; v < n; ++v) {
      if (ntk.is_tap(v) || ntk.kind(v) == CellKind::kT1) continue;
      for (const std::uint32_t u : ntk.fanins(v)) {
        if (!ntk.is_const(u)) edge(u, v);
      }
    }
  });
  c.t1.build(n, [&](auto&& edge) {
    for (std::uint32_t v = 0; v < n; ++v) {
      if (ntk.kind(v) != CellKind::kT1) continue;
      const auto f = ntk.fanins(v);
      for (std::uint8_t j = 0; j < 3; ++j) {
        if (!ntk.is_const(f[j])) edge(f[j], Consumers::T1Pin{v, j});
      }
    }
  });
  c.drives_po.assign(n, 0);
  for (const auto& po : ntk.pos()) c.drives_po[po.driver] = 1;
  return c;
}

/// DFFs of a shared chain from a driver at `su` whose latest regular
/// consumer (or the PO capture) sits at `max_sv`.  Guarded against the
/// `kNoStage` sentinel on either side: an unplaced or constant driver has
/// no chain, and neither has a driver without placed consumers (naive
/// `max_sv - su` on sentinel stages is signed-overflow UB).
long chain_dffs(int su, int max_sv, int n) {
  if (su == kNoStage || max_sv == kNoStage) return 0;
  const long gap = static_cast<long>(max_sv) - su;
  if (gap <= 0) return 0;
  return std::max(0l, (gap + n - 1) / n - 1);
}

/// Latest stage among a driver's placed regular consumers other than
/// `skip`, and `sigma_po` when the driver feeds a PO; kNoStage when none.
int max_consumer_stage(std::span<const std::uint32_t> consumers,
                       bool drives_po, int sigma_po,
                       const std::vector<int>& sigma,
                       std::uint32_t skip = std::numeric_limits<
                           std::uint32_t>::max()) {
  int max_sv = drives_po ? sigma_po : kNoStage;
  for (const std::uint32_t w : consumers) {
    if (w != skip && sigma[w] != kNoStage) max_sv = std::max(max_sv, sigma[w]);
  }
  return max_sv;
}

/// DFFs of the shared chain from a driver at `su` to regular consumers.
long driver_chain_dffs(int su, std::span<const std::uint32_t> consumers,
                       bool drives_po, int sigma_po,
                       const std::vector<int>& sigma, int n) {
  return chain_dffs(
      su, max_consumer_stage(consumers, drives_po, sigma_po, sigma), n);
}

}  // namespace

int t1_min_stage(std::array<int, 3> s) {
  std::sort(s.begin(), s.end());
  // Constants participate with "stage 0" for feasibility purposes: their
  // pulse still needs a distinct arrival slot.
  for (int& v : s) {
    if (v == kNoStage) v = 0;
    T1MAP_REQUIRE(v > -kMaxStage && v < kMaxStage,
                  "t1_min_stage: producer stage out of range (sentinel "
                  "leaked into stage arithmetic?)");
  }
  return std::max({s[0] + 3, s[1] + 2, s[2] + 1});
}

T1Releases solve_t1_releases(const std::array<int, 3>& producer_stage,
                             int sigma_t1, int n) {
  T1MAP_REQUIRE(n >= 3, "T1 cells require at least 3 clock phases");
  T1MAP_REQUIRE(sigma_t1 > -kMaxStage && sigma_t1 < kMaxStage,
                "solve_t1_releases: sigma_t1 out of range");
  for (const int s : producer_stage) {
    T1MAP_REQUIRE(s > -kMaxStage && s < kMaxStage,
                  "solve_t1_releases: producer stage out of range");
  }
  const int window_lo = sigma_t1 - n;
  const int window_hi = sigma_t1 - 1;
  constexpr long kInfeasible = std::numeric_limits<long>::max();

  // Per-input release cost over the window, computed once: 0 when the
  // producer itself releases at r, else one dedicated chain ending at r.
  // Slots before the producer are infeasible.  This runs in the innermost
  // loops of stage optimization, so the window lives on the stack for the
  // phase counts the CLI admits.
  constexpr int kStackWindow = 64;
  long stack_buf[3 * kStackWindow];
  std::vector<long> heap_buf;
  long* cost = stack_buf;
  if (n > kStackWindow) {
    heap_buf.resize(3 * static_cast<std::size_t>(n));
    cost = heap_buf.data();
  }
  for (int j = 0; j < 3; ++j) {
    const int s = producer_stage[j];
    for (int r = window_lo; r <= window_hi; ++r) {
      long& slot = cost[j * n + (r - window_lo)];
      if (r < s) {
        slot = kInfeasible;
      } else if (r == s) {
        slot = 0;  // released by the producer itself
      } else {
        slot = ceil_div(r - s, n);  // dedicated chain ending at r
      }
    }
  }
  const long* cost0 = cost;
  const long* cost1 = cost + n;
  const long* cost2 = cost + 2 * n;

  // Lexicographically-first minimum over distinct (r0, r1, r2); partial
  // sums already at or above the best prune whole subtrees (costs are
  // non-negative, so they cannot recover).
  T1Releases best{{0, 0, 0}, kInfeasible};
  for (int i0 = 0; i0 < n; ++i0) {
    const long c0 = cost0[i0];
    if (c0 == kInfeasible || c0 >= best.dffs) continue;
    for (int i1 = 0; i1 < n; ++i1) {
      const long c1 = cost1[i1];
      if (i1 == i0 || c1 == kInfeasible || c0 + c1 >= best.dffs) continue;
      for (int i2 = 0; i2 < n; ++i2) {
        const long c2 = cost2[i2];
        if (i2 == i0 || i2 == i1 || c2 == kInfeasible) continue;
        const long total = c0 + c1 + c2;
        if (total < best.dffs) {
          best = T1Releases{{window_lo + i0, window_lo + i1, window_lo + i2},
                            total};
        }
      }
    }
  }
  T1MAP_REQUIRE(best.dffs != kInfeasible,
                "T1 release assignment infeasible: eq. (3) violated");
  return best;
}

namespace {

/// Local legality of node v's fanin-side constraints under `sigma`.
bool fanin_side_ok(const Netlist& ntk, const std::vector<int>& sigma,
                   std::uint32_t v, int n) {
  const CellKind k = ntk.kind(v);
  if (k == CellKind::kPi || ntk.is_const(v)) return true;
  if (ntk.is_tap(v)) return sigma[v] == sigma[ntk.fanins(v)[0]];
  if (k == CellKind::kT1) {
    if (n < 3) return false;
    return sigma[v] >= t1_min_stage(t1_producers(ntk, sigma, v));
  }
  for (const std::uint32_t u : ntk.fanins(v)) {
    const int ps = producer_stage(ntk, sigma, u);
    if (ps != kNoStage && sigma[v] <= ps) return false;
  }
  return true;
}

/// Minimum release-chain DFFs of T1 core t under `sigma` (eq. 4).
long t1_release_dffs(const Netlist& ntk, const std::vector<int>& sigma,
                     std::uint32_t t, int n) {
  return solve_t1_releases(t1_producers(ntk, sigma, t), sigma[t], n).dffs;
}

}  // namespace

bool assignment_is_legal(const Netlist& ntk, const StageAssignment& sa) {
  if (static_cast<std::uint32_t>(sa.sigma.size()) != ntk.num_nodes()) {
    return false;
  }
  for (std::uint32_t v = 0; v < ntk.num_nodes(); ++v) {
    if (ntk.is_pi(v) || ntk.is_const(v)) {
      if (sa.sigma[v] != 0) return false;
      continue;
    }
    if (!fanin_side_ok(ntk, sa.sigma, v, sa.num_phases)) return false;
  }
  for (const auto& po : ntk.pos()) {
    const int ps = producer_stage(ntk, sa.sigma, po.driver);
    if (ps != kNoStage && sa.sigma_po <= ps) return false;
  }
  return true;
}

DffCount count_dffs(const Netlist& ntk, const StageAssignment& sa) {
  const Consumers cons = build_consumers(ntk);
  const int n = sa.num_phases;
  DffCount count;

  for (std::uint32_t u = 0; u < ntk.num_nodes(); ++u) {
    if (ntk.is_const(u) || ntk.is_t1(u)) continue;
    count.regular += driver_chain_dffs(sa.sigma[u], cons.regular[u],
                                       cons.drives_po[u] != 0, sa.sigma_po,
                                       sa.sigma, n);
  }
  for (std::uint32_t t = 0; t < ntk.num_nodes(); ++t) {
    if (ntk.is_t1(t)) count.t1 += t1_release_dffs(ntk, sa.sigma, t, n);
  }
  return count;
}

namespace {

/// ASAP pass: earliest legal stage per node in topological (id) order —
/// longest-path seeding, one linear scan, no relaxation.
void asap(const Netlist& ntk, std::vector<int>& sigma) {
  sigma.assign(ntk.num_nodes(), 0);
  for (std::uint32_t v = 0; v < ntk.num_nodes(); ++v) {
    const CellKind k = ntk.kind(v);
    if (k == CellKind::kPi || ntk.is_const(v)) {
      sigma[v] = 0;
      continue;
    }
    if (ntk.is_tap(v)) {
      sigma[v] = sigma[ntk.fanins(v)[0]];
      continue;
    }
    if (k == CellKind::kT1) {
      sigma[v] = t1_min_stage(t1_producers(ntk, sigma, v));
      continue;
    }
    int lo = 1;
    for (const std::uint32_t u : ntk.fanins(v)) {
      const int ps = producer_stage(ntk, sigma, u);
      if (ps != kNoStage) lo = std::max(lo, ps + 1);
    }
    sigma[v] = lo;
  }
}

/// Everything the descent needs to check and score every candidate stage
/// of one node v.  Only v's own stage (and its taps') varies while v's
/// candidates are scanned, so the legal window and each chain's other
/// consumers are read once per evaluated node; a candidate then costs
/// O(fanins + T1 consumers).  Buffers are reused across nodes.
struct NodeWindow {
  /// Legal stages w.r.t. v's fanins (eq. 3 when v is a core) and its
  /// regular consumers and POs: lo <= s <= hi.  The assignment is legal
  /// before every move, so a consumer's other fanins need no re-check.
  int lo = 0;
  int hi = 0;
  /// Cost terms that do not depend on v's stage.
  long fixed = 0;
  /// Per chain that v (or, for a core, each tap) drives: its latest
  /// consumer stage.  The chain starts at v's stage.
  std::vector<int> own_max;
  /// Per non-constant fanin u of a regular v (with multiplicity): u's
  /// stage and its latest consumer stage other than v.  v's stage joins
  /// the max.
  std::vector<std::pair<int, int>> fanin_chains;
  /// T1 cores reading v (or its taps), with multiplicity: their eq. (3)
  /// legality and release costs depend on v's stage.
  std::vector<std::uint32_t> t1_users;

  void build(const Netlist& ntk, const Consumers& cons,
             const std::vector<int>& sigma, int sigma_po, int n,
             std::uint32_t v, std::span<const std::uint32_t> taps) {
    own_max.clear();
    fanin_chains.clear();
    t1_users.clear();
    fixed = 0;
    hi = std::numeric_limits<int>::max();
    const auto add_driver = [&](std::uint32_t x) {
      own_max.push_back(max_consumer_stage(
          cons.regular[x], cons.drives_po[x] != 0, sigma_po, sigma));
      for (const std::uint32_t w : cons.regular[x]) {
        hi = std::min(hi, sigma[w] - 1);
      }
      if (cons.drives_po[x] != 0) hi = std::min(hi, sigma_po - 1);
      for (const Consumers::T1Pin& p : cons.t1[x]) t1_users.push_back(p.node);
    };

    if (ntk.is_t1(v)) {
      lo = t1_min_stage(t1_producers(ntk, sigma, v));
      for (const std::uint32_t tap : taps) add_driver(tap);
      // A core is no regular consumer, so its fanins' chains are fixed.
      for (const std::uint32_t u : ntk.fanins(v)) {
        if (ntk.is_const(u) || ntk.is_t1(u)) continue;
        fixed += driver_chain_dffs(sigma[u], cons.regular[u],
                                   cons.drives_po[u] != 0, sigma_po, sigma,
                                   n);
      }
      return;
    }
    lo = 1;  // stages below 1 are never candidates
    for (const std::uint32_t u : ntk.fanins(v)) {
      const int ps = producer_stage(ntk, sigma, u);
      if (ps != kNoStage) lo = std::max(lo, ps + 1);
      if (ntk.is_const(u) || ntk.is_t1(u)) continue;
      fanin_chains.emplace_back(
          sigma[u], max_consumer_stage(cons.regular[u],
                                       cons.drives_po[u] != 0, sigma_po,
                                       sigma, /*skip=*/v));
    }
    add_driver(v);
  }

  /// Whether stage `s` (already written to v and its taps in `sigma`)
  /// keeps the assignment legal, given lo <= s <= hi.
  bool t1_users_ok(const Netlist& ntk, const std::vector<int>& sigma,
                   int n) const {
    for (const std::uint32_t t : t1_users) {
      if (!fanin_side_ok(ntk, sigma, t, n)) return false;
    }
    return true;
  }

  /// DFFs of every chain and T1 release that v's stage `s` (already
  /// written to v and its taps in `sigma`) influences.
  long cost(const Netlist& ntk, const std::vector<int>& sigma, int n,
            std::uint32_t v, int s) const {
    long c = fixed;
    for (const int max_sv : own_max) c += chain_dffs(s, max_sv, n);
    for (const auto& [su, max_sv] : fanin_chains) {
      c += chain_dffs(su, std::max(max_sv, s), n);
    }
    if (ntk.is_t1(v)) c += t1_release_dffs(ntk, sigma, v, n);
    for (const std::uint32_t t : t1_users) {
      c += t1_release_dffs(ntk, sigma, t, n);
    }
    return c;
  }
};

}  // namespace

StageAssignment assign_stages(const Netlist& ntk, const StageParams& params) {
  T1MAP_REQUIRE(params.num_phases >= 1, "need at least one phase");
  if (ntk.num_t1() > 0) {
    T1MAP_REQUIRE(params.num_phases >= 3,
                  "T1 cells require at least 3 clock phases (distinct input "
                  "arrival slots)");
  }

  StageAssignment sa;
  sa.num_phases = params.num_phases;
  asap(ntk, sa.sigma);

  sa.sigma_po = 1;
  for (const auto& po : ntk.pos()) {
    const int ps = producer_stage(ntk, sa.sigma, po.driver);
    if (ps != kNoStage) sa.sigma_po = std::max(sa.sigma_po, ps + 1);
  }

  if (!params.optimize) return sa;

  const Consumers cons = build_consumers(ntk);
  const int n = params.num_phases;
  const std::uint32_t nn = ntk.num_nodes();

  // Tap lists per T1 core (cores move together with their taps).
  Csr<std::uint32_t> taps;
  taps.build(nn, [&](auto&& edge) {
    for (std::uint32_t v = 0; v < nn; ++v) {
      if (ntk.is_tap(v)) edge(ntk.fanins(v)[0], v);
    }
  });

  // --- Frontier-based coordinate descent -------------------------------
  //
  // A node's move decision is a pure function of the stages in its 2-hop
  // neighborhood (its own, fanins', consumers', and — through shared
  // chains and T1 release windows — siblings': consumers of fanins and
  // fanins of consumers).  So a node whose neighborhood has not changed
  // since its last evaluation provably re-evaluates to "no move", and
  // skipping it cannot change the result.  Each applied move marks its
  // (conservatively widened) affected set dirty for both the remainder of
  // this sweep and the next one; everything else is skipped.  The move
  // sequence — and therefore every stage — is bit-for-bit identical to
  // the full fixed-point relaxation this replaces, but late sweeps on
  // deep netlists (long adder/CORDIC chains) touch only the shrinking
  // frontier instead of re-scanning every node, and the first no-move
  // sweep over an empty frontier is free.
  std::vector<std::uint8_t> dirty_cur(nn, 1);
  std::vector<std::uint8_t> dirty_next(nn, 0);
  const auto canon = [&](std::uint32_t x) {
    return ntk.is_tap(x) ? ntk.fanins(x)[0] : x;
  };
  const auto mark = [&](std::uint32_t x) {
    x = canon(x);
    dirty_cur[x] = 1;
    dirty_next[x] = 1;
  };
  // Movable out-edges of x: regular + T1 consumers, through taps when x is
  // a core (tap-core edges are internal pins).
  const auto for_each_consumer = [&](std::uint32_t x, auto&& fn) {
    const auto each_out = [&](std::uint32_t y) {
      for (const std::uint32_t w : cons.regular[y]) fn(w);
      for (const Consumers::T1Pin& p : cons.t1[y]) fn(p.node);
    };
    if (ntk.is_t1(x)) {
      for (const std::uint32_t tap : taps[x]) each_out(tap);
    } else {
      each_out(x);
    }
  };
  const auto for_each_fanin = [&](std::uint32_t x, auto&& fn) {
    for (const std::uint32_t u : ntk.fanins(x)) {
      if (!ntk.is_const(u)) fn(canon(u));
    }
  };
  const auto mark_affected = [&](std::uint32_t v) {
    mark(v);
    for_each_fanin(v, [&](std::uint32_t u) {
      mark(u);
      for_each_consumer(u, [&](std::uint32_t w) { mark(w); });
    });
    for_each_consumer(v, [&](std::uint32_t w) {
      mark(w);
      for_each_fanin(w, [&](std::uint32_t u) { mark(u); });
    });
  };

  std::vector<int> candidates;  // reused across nodes, no per-node heap
  NodeWindow window;
  static constexpr std::span<const std::uint32_t> kNoTaps;

  for (int sweep = 0; sweep < params.max_sweeps; ++sweep) {
    bool changed = false;
    for (std::uint32_t v = 0; v < nn; ++v) {
      if (!dirty_cur[v]) continue;
      dirty_cur[v] = 0;
      if (ntk.is_pi(v) || ntk.is_const(v) || ntk.is_tap(v)) continue;
      const std::span<const std::uint32_t> my_taps =
          ntk.is_t1(v) ? taps[v] : kNoTaps;

      // Candidate stages: breakpoints induced by fanins (σu+1, σu+1+n) and
      // consumers (σw−1, σw−1−n), clipped to legality by the node window.
      candidates.clear();
      candidates.push_back(sa.sigma[v]);
      for (const std::uint32_t u : ntk.fanins(v)) {
        const int ps = producer_stage(ntk, sa.sigma, u);
        if (ps == kNoStage) continue;
        candidates.push_back(ps + 1);
        candidates.push_back(ps + 1 + n);
        candidates.push_back(ps + 3);  // T1 eq. (3) slack
      }
      const auto add_consumer_candidates = [&](std::uint32_t producer) {
        for (const std::uint32_t w : cons.regular[producer]) {
          candidates.push_back(sa.sigma[w] - 1);
          candidates.push_back(sa.sigma[w] - 1 - n);
        }
        for (const Consumers::T1Pin& p : cons.t1[producer]) {
          candidates.push_back(sa.sigma[p.node] - 1);
          candidates.push_back(sa.sigma[p.node] - 3);
          candidates.push_back(sa.sigma[p.node] - n);
        }
        if (cons.drives_po[producer] != 0) {
          candidates.push_back(sa.sigma_po - 1);
          candidates.push_back(sa.sigma_po - 1 - n);
        }
      };
      if (ntk.is_t1(v)) {
        for (const std::uint32_t tap : my_taps) add_consumer_candidates(tap);
      } else {
        add_consumer_candidates(v);
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());

      const int original = sa.sigma[v];
      const auto place = [&](int stage) {
        sa.sigma[v] = stage;
        for (const std::uint32_t tap : my_taps) sa.sigma[tap] = stage;
      };
      window.build(ntk, cons, sa.sigma, sa.sigma_po, n, v, my_taps);
      long best_cost = window.cost(ntk, sa.sigma, n, v, original);
      int best_stage = original;
      for (const int s : candidates) {
        if (s == original || s < 1) continue;
        if (s > window.hi) break;  // candidates ascend
        if (s < window.lo) continue;
        place(s);
        if (window.t1_users_ok(ntk, sa.sigma, n)) {
          const long cost = window.cost(ntk, sa.sigma, n, v, s);
          if (cost < best_cost) {
            best_cost = cost;
            best_stage = s;
          }
        }
        place(original);
      }
      if (best_stage != original) {
        place(best_stage);
        mark_affected(v);
        changed = true;
      }
    }
    if (!changed) break;
    dirty_cur.swap(dirty_next);
    std::fill(dirty_next.begin(), dirty_next.end(), 0);
  }
  T1MAP_ASSERT(assignment_is_legal(ntk, sa));
  return sa;
}

}  // namespace t1map::retime
