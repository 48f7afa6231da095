#include "sfq/mapper.hpp"

#include <algorithm>
#include <array>
#include <span>

namespace t1map::sfq {

namespace {

/// The covering DP's decision for one AND node: the chosen cut (active
/// leaves in truth-table variable order), the cell config realizing its
/// function, and the DP values downstream consumers read.
struct MapChoice {
  std::array<std::uint32_t, kMaxCutLeaves> leaves{};
  std::uint8_t num_leaves = 0;
  CellConfig config;
  int arrival = 0;
  double flow = 0.0;
  bool valid = false;

  std::span<const std::uint32_t> leaf_span() const {
    return {leaves.data(), num_leaves};
  }
};

/// Match tables: for each arity, tt bits -> realizable configs, plus the
/// `CutMatch` of every table of arity 0..3.  The cut matches are precomputed
/// because a per-cut heap allocation and bit-by-bit support projection were
/// ~75% of the covering DP.
class MatchTables {
 public:
  MatchTables() {
    const CellKind kinds1[] = {CellKind::kBuf, CellKind::kNot};
    const CellKind kinds2[] = {CellKind::kAnd2, CellKind::kOr2,
                               CellKind::kXor2};
    const CellKind kinds3[] = {CellKind::kAnd3, CellKind::kOr3,
                               CellKind::kXor3, CellKind::kMaj3};
    build(1, kinds1, table1_);
    build(2, kinds2, table2_);
    build(3, kinds3, table3_);
    for (int arity = 0; arity <= 3; ++arity) {
      for (std::uint64_t bits = 0; bits < (1ull << (1u << arity)); ++bits) {
        const Tt tt(arity, bits);
        CutMatch& m = cut_matches_[kCutOffset[arity] + bits];
        m.support = static_cast<std::uint8_t>(tt.support_mask());
        m.reduced = project(tt, m.support);
        m.configs = lookup(m.reduced);
      }
    }
  }

  const std::vector<CellConfig>& lookup(const Tt& tt) const {
    static const std::vector<CellConfig> kEmpty;
    switch (tt.num_vars()) {
      case 1: return table1_[tt.bits()];
      case 2: return table2_[tt.bits()];
      case 3: return table3_[tt.bits()];
      default: return kEmpty;
    }
  }

  const CutMatch& cut_match(const Tt& tt) const {
    T1MAP_ASSERT(tt.num_vars() <= 3);
    return cut_matches_[kCutOffset[tt.num_vars()] + tt.bits()];
  }

 private:
  /// First entry of each arity in `cut_matches_` (2, 4 and 16 tables
  /// precede arity 3's 256).
  static constexpr std::array<std::size_t, 4> kCutOffset = {0, 2, 6, 22};

  /// `tt` over its `support` variables only (the others fixed to 0).
  static Tt project(const Tt& tt, std::uint32_t support) {
    Tt reduced(__builtin_popcount(support));
    for (std::uint64_t i = 0; i < reduced.num_bits(); ++i) {
      std::uint64_t src = 0;
      int next = 0;
      for (int v = 0; v < tt.num_vars(); ++v) {
        if ((support & (1u << v)) == 0) continue;
        if ((i >> next++) & 1u) src |= 1ull << v;
      }
      if (tt.bit(src)) reduced.set_bit(i, true);
    }
    return reduced;
  }

  template <std::size_t N, std::size_t K>
  void build(int arity, const CellKind (&kinds)[K],
             std::array<std::vector<CellConfig>, N>& table) {
    const int not_area = cell_area_jj(CellKind::kNot);
    for (const CellKind kind : kinds) {
      // NOT / BUF do not re-enter as modifiers of themselves.
      const bool is_inverterish =
          kind == CellKind::kBuf || kind == CellKind::kNot;
      const Tt base = cell_tt(kind);
      const std::uint32_t num_masks = 1u << arity;
      for (std::uint32_t in_neg = 0; in_neg < num_masks; ++in_neg) {
        if (is_inverterish && in_neg != 0) continue;
        for (int out_neg = 0; out_neg < 2; ++out_neg) {
          if (is_inverterish && out_neg != 0) continue;
          Tt tt = base.apply_polarity(in_neg);
          if (out_neg != 0) tt = ~tt;
          const int area = cell_area_jj(kind) +
                           not_area * __builtin_popcount(in_neg) +
                           (out_neg != 0 ? not_area : 0);
          CellConfig config{kind, static_cast<std::uint8_t>(in_neg),
                            out_neg != 0, area};
          insert(table[tt.bits()], config);
        }
      }
    }
  }

  static void insert(std::vector<CellConfig>& configs,
                     const CellConfig& config) {
    // Keep the cheapest config per (input_neg, output_neg) profile.  The
    // covering DP is polarity-aware, so differently-negated variants of the
    // same function are genuinely different choices (an output-negated cell
    // serves complemented consumers for free).
    for (CellConfig& existing : configs) {
      if (existing.input_neg == config.input_neg &&
          existing.output_neg == config.output_neg) {
        if (config.area < existing.area) existing = config;
        return;
      }
    }
    configs.push_back(config);
  }

  std::array<std::vector<CellConfig>, 4> table1_;
  std::array<std::vector<CellConfig>, 16> table2_;
  std::array<std::vector<CellConfig>, 256> table3_;
  std::array<CutMatch, 2 + 4 + 16 + 256> cut_matches_;
};

const MatchTables& match_tables() {
  static const MatchTables tables;
  return tables;
}

}  // namespace

const std::vector<CellConfig>& match_function(const Tt& tt) {
  return match_tables().lookup(tt);
}

const CutMatch& match_cut(const Tt& tt) {
  return match_tables().cut_match(tt);
}

Netlist map_to_sfq(const Aig& aig, const MapperParams& params,
                   MapStats* stats, CutWorkspace* workspace) {
  T1MAP_REQUIRE(params.cuts.k >= 2 && params.cuts.k <= 3,
                "SFQ mapper supports cut sizes 2 and 3");
  CutWorkspace local_ws;
  CutWorkspace& ws = workspace != nullptr ? *workspace : local_ws;
  const auto fanout = aig.fanout_counts();

  enumerate_cuts_into(aig, params.cuts, ws);
  const CutSet& cuts = ws.cuts;

  // --- Covering DP: best (raw arrival, flow) choice per AND node. ----------
  //
  // Polarity-aware: `arrival[n]` is when the chosen cell's *raw* output
  // fires and `planned_neg[n]` records whether that raw output is the
  // complement of the node function.  A consumer wanting polarity p pays an
  // inverter stage only when p differs from the leaf's raw polarity, which
  // is how complement chains (carry logic, XNOR roots) map without inverter
  // towers.
  std::vector<MapChoice> best(aig.num_nodes());
  std::vector<int> arrival(aig.num_nodes(), 0);
  std::vector<double> flow(aig.num_nodes(), 0.0);
  std::vector<std::uint8_t> planned_neg(aig.num_nodes(), 0);

  const int not_stage = 1;
  const auto leaf_arrival = [&](std::uint32_t leaf, bool want_neg) {
    return arrival[leaf] + ((planned_neg[leaf] != 0) != want_neg ? not_stage : 0);
  };

  // The full DP step for one AND node.  Reads arrival/flow/planned_neg only
  // at the cut leaves (lower node ids) and writes only this node's slots.
  const auto compute_node = [&](std::uint32_t n) {
    MapChoice chosen;
    for (const Cut& cut : cuts[n]) {
      if (cut.is_trivial(n)) continue;
      const CutMatch& match = match_cut(cut.tt);
      if (match.reduced.num_vars() == 0) {
        // Constant function of the leaves (reconvergence artifact): realize
        // below via the fanin-pair fallback instead.
        continue;
      }
      std::array<std::uint32_t, kMaxCutLeaves> active;
      const std::size_t num_active =
          match.active_leaves(cut.leaves, active.data());
      for (const CellConfig& config : match.configs) {
        int arr = 0;
        double fl = static_cast<double>(config.area);
        for (std::size_t i = 0; i < num_active; ++i) {
          const bool want_neg = ((config.input_neg >> i) & 1u) != 0;
          arr = std::max(arr, leaf_arrival(active[i], want_neg));
          fl += flow[active[i]];
        }
        arr += 1;  // the cell itself; raw polarity = config.output_neg
        fl /= std::max<std::uint32_t>(1, fanout[n]);
        const bool better =
            !chosen.valid || arr < chosen.arrival ||
            (arr == chosen.arrival && fl < chosen.flow - 1e-12);
        if (better) {
          chosen.num_leaves = static_cast<std::uint8_t>(num_active);
          std::copy_n(active.begin(), num_active, chosen.leaves.begin());
          chosen.config = config;
          chosen.arrival = arr;
          chosen.flow = fl;
          chosen.valid = true;
        }
      }
    }

    // Fallback: the fanin-pair AND2 with edge complements as inverters.
    if (!chosen.valid) {
      const Lit f0 = aig.fanin0(n);
      const Lit f1 = aig.fanin1(n);
      MapChoice fb;
      fb.leaves[0] = lit_node(f0);
      fb.leaves[1] = lit_node(f1);
      fb.num_leaves = 2;
      std::uint8_t neg = 0;
      if (lit_is_complemented(f0)) neg |= 1;
      if (lit_is_complemented(f1)) neg |= 2;
      fb.config = CellConfig{CellKind::kAnd2, neg, false,
                             cell_area_jj(CellKind::kAnd2) +
                                 cell_area_jj(CellKind::kNot) *
                                     __builtin_popcount(neg)};
      fb.arrival = 1 + std::max(leaf_arrival(fb.leaves[0], (neg & 1) != 0),
                                leaf_arrival(fb.leaves[1], (neg & 2) != 0));
      fb.flow = 0.0;
      fb.valid = true;
      chosen = fb;
    }

    best[n] = chosen;
    arrival[n] = chosen.arrival;
    flow[n] = chosen.flow;
    planned_neg[n] = chosen.config.output_neg ? 1 : 0;
  };

  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    if (aig.is_and(n)) compute_node(n);
  }

  // --- Cover extraction: mark required nodes from the POs. -----------------
  std::vector<bool> required(aig.num_nodes(), false);
  std::vector<std::uint32_t> stack;
  for (const Lit po : aig.pos()) {
    const std::uint32_t n = lit_node(po);
    if (aig.is_and(n) && !required[n]) {
      required[n] = true;
      stack.push_back(n);
    }
  }
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    for (const std::uint32_t leaf : best[n].leaf_span()) {
      if (aig.is_and(leaf) && !required[leaf]) {
        required[leaf] = true;
        stack.push_back(leaf);
      }
    }
  }

  // --- Netlist construction (AIG id order = topological). ------------------
  //
  // Each mapped node keeps its *raw* cell output plus a polarity flag
  // (configs with output negation produce the complement).  Inverters are
  // created lazily and cached in both directions, so a consumer wanting the
  // complemented value of an output-negated cell taps the raw output for
  // free — the SFQ equivalent of AIG complemented-edge absorption.
  Netlist ntk;
  constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  std::vector<std::uint32_t> raw_signal(aig.num_nodes(), kNone);
  std::vector<bool> raw_negated(aig.num_nodes(), false);
  // Inverter cache by signal id.  Every signal is a PI, a mapped AIG node,
  // the one inverter of either, or a constant (at most one per PO), so ids
  // stay below 2 * num_nodes + num_pos.
  std::vector<std::uint32_t> inverted(
      2 * std::size_t{aig.num_nodes()} + aig.num_pos(), kNone);
  std::uint32_t const0 = kNone;

  MapStats local_stats;
  const auto get_inverted = [&](std::uint32_t sig) {
    if (inverted[sig] != kNone) return inverted[sig];
    const std::uint32_t inv = ntk.add_cell(CellKind::kNot, {sig});
    ++local_stats.cells;
    ++local_stats.inverters;
    inverted[sig] = inv;
    inverted[inv] = sig;  // NOT(NOT(x)) = x: reuse both ways
    return inv;
  };
  /// The node's value in the requested polarity.
  const auto get_signal = [&](std::uint32_t node, bool want_negated) {
    const std::uint32_t sig = raw_signal[node];
    T1MAP_ASSERT(sig != kNone);
    if (raw_negated[node] == want_negated) return sig;
    return get_inverted(sig);
  };

  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    raw_signal[aig.pis()[i]] = ntk.add_pi(aig.pi_name(i));
  }

  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    if (!aig.is_and(n) || !required[n]) continue;
    const MapChoice& choice = best[n];
    T1MAP_ASSERT(choice.valid);

    std::array<std::uint32_t, kMaxCutLeaves> ins;
    for (std::size_t i = 0; i < choice.num_leaves; ++i) {
      const bool want_neg = ((choice.config.input_neg >> i) & 1u) != 0;
      ins[i] = get_signal(choice.leaves[i], want_neg);
    }
    raw_signal[n] = ntk.add_cell(
        choice.config.kind,
        std::span<const std::uint32_t>(ins.data(), choice.num_leaves));
    raw_negated[n] = choice.config.output_neg;
    ++local_stats.cells;
  }

  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    const Lit po = aig.po(i);
    const std::uint32_t n = lit_node(po);
    std::uint32_t sig;
    if (aig.is_const0(n)) {
      if (lit_is_complemented(po)) {
        sig = ntk.add_const(true);
      } else {
        if (const0 == kNone) const0 = ntk.add_const(false);
        sig = const0;
      }
      ntk.add_po(sig, aig.po_name(i));
      continue;
    }
    ntk.add_po(get_signal(n, lit_is_complemented(po)), aig.po_name(i));
  }

  if (stats != nullptr) {
    // Depth in stages: longest PI-to-PO path over clocked cells.
    std::vector<int> level(ntk.num_nodes(), 0);
    for (std::uint32_t id = 0; id < ntk.num_nodes(); ++id) {
      int lv = 0;
      for (const std::uint32_t f : ntk.fanins(id)) {
        lv = std::max(lv, level[f]);
      }
      level[id] = lv + (cell_is_clocked(ntk.kind(id)) &&
                                !ntk.is_tap(id)
                            ? 1
                            : 0);
    }
    for (const auto& po : ntk.pos()) {
      local_stats.depth_stages = std::max(local_stats.depth_stages,
                                          level[po.driver]);
    }
    *stats = local_stats;
  }
  return ntk;
}

}  // namespace t1map::sfq
