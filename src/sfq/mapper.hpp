/// \file mapper.hpp
/// \brief Cut-based technology mapping from AIG to the SFQ cell library.
///
/// Every SFQ logic gate is clocked, so logic depth directly sets the
/// pipeline length and — through path balancing — the DFF bill.  The mapper
/// is therefore *depth-oriented*: per node it selects, among all 3-feasible
/// cuts whose function is implementable as one library cell plus input /
/// output inverters, the config with minimal arrival time, breaking ties by
/// area flow.  This is how the wide XOR3/MAJ3 cells win on carry chains
/// (one stage instead of two) exactly as in the paper's `adder` row, while
/// AND2-dominated control logic maps to cheap 2-input cells.
///
/// Inverters are explicit clocked NOT cells (RSFQ inverters are clocked);
/// they are deduplicated per driven signal.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "cut/cut_enum.hpp"
#include "sfq/netlist.hpp"
#include "tt/truth_table.hpp"

namespace t1map::sfq {

struct MapperParams {
  CutParams cuts{/*k=*/3, /*max_cuts=*/16};
};

struct MapStats {
  long cells = 0;      // library cells instantiated (inverters included)
  long inverters = 0;  // NOT cells among them
  int depth_stages = 0;
};

/// One way to realize a Boolean function as a library cell plus inverters.
struct CellConfig {
  CellKind kind;
  std::uint8_t input_neg = 0;  // bit i: invert input i
  bool output_neg = false;
  int area = 0;  // cell + inverter JJ area (before inverter sharing)
};

/// All non-dominated configs realizing `tt` (arity 1..3, full support).
/// Empty when the function is not realizable as a single cell + inverters
/// (possible only for some 3-variable functions).
const std::vector<CellConfig>& match_function(const Tt& tt);

/// A cut function reduced to its support, with the configs realizing it.
/// `reduced` keeps the surviving variables in their original order, so
/// reduced variable i is the i-th set bit of `support`.
struct CutMatch {
  std::uint8_t support = 0;  // bit v: the function depends on variable v
  Tt reduced;                // constant (arity 0) when `support` is empty
  std::span<const CellConfig> configs;  // == match_function(reduced)

  /// Writes the leaves of the support variables, in variable order, to
  /// `out` and returns how many there are.
  std::size_t active_leaves(std::span<const std::uint32_t> leaves,
                            std::uint32_t* out) const {
    std::size_t n = 0;
    for (std::uint32_t m = support; m != 0; m &= m - 1) {
      out[n++] = leaves[static_cast<std::size_t>(__builtin_ctz(m))];
    }
    return n;
  }
};

/// The precomputed `CutMatch` of `tt` (arity 0..3).
const CutMatch& match_cut(const Tt& tt);

/// Maps `aig` to an SFQ netlist with identical PI/PO interface and
/// function.  The result contains logic cells only (no DFFs, no T1s —
/// T1 substitution is the separate detection pass of t1/).
///
/// `workspace`, when given, supplies the cut-enumeration arena; it is reset
/// per call, so reusing one workspace across many mappings avoids the
/// per-run arena growth without changing the result.
Netlist map_to_sfq(const Aig& aig, const MapperParams& params = {},
                   MapStats* stats = nullptr,
                   CutWorkspace* workspace = nullptr);

}  // namespace t1map::sfq
