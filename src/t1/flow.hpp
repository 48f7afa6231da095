/// \file flow.hpp
/// \brief Parameters and statistics of the T1-aware technology-mapping flow
/// (paper §II) and of the 1φ / nφ baselines of Table I.
///
/// Pipeline:
///   AIG  ──mapper──►  SFQ netlist  ──[T1 detect + rewrite]──►
///        ──stage assignment (§II-B)──►  DFF insertion (§II-C)──►
///        materialized netlist + Table-I statistics.
///
/// `FlowEngine` (flow_engine.hpp) runs it.  The default pipeline self-checks:
/// the materialized netlist passes the independent timing validator and
/// (optionally) random-simulation equivalence against the source AIG.

#pragma once

#include <cstdint>

#include "sfq/mapper.hpp"
#include "t1/t1_detect.hpp"

namespace t1map::t1 {

struct FlowParams {
  /// Clock phases n.  1 = classic full path balancing; the paper's T1
  /// column uses 4.
  int num_phases = 4;
  /// Enable T1 detection + substitution (requires num_phases >= 3).
  bool use_t1 = true;
  /// Run the DFF-minimizing stage-improvement sweeps.
  bool optimize_stages = true;
  int stage_sweeps = 6;
  DetectParams detect;
  sfq::MapperParams mapper;
  /// Verify the result against the AIG by random simulation (rounds of 64
  /// patterns); 0 disables.
  int verify_rounds = 8;
  /// Conflict budget of the SAT CEC pass when the pipeline includes it
  /// (flow_engine.hpp); < 0 = unlimited.
  std::int64_t cec_conflict_limit = -1;
  /// Ignored; kept for perfbench.  CEC is serial (sat/cec.hpp).
  bool sat_portfolio = false;
};

/// The quantities Table I reports (plus a few internals).
struct FlowStats {
  long dffs = 0;        // path-balancing DFFs ("#DFF")
  long area_jj = 0;     // total area in JJs, DFFs and splitters included
  int depth_cycles = 0; // logic depth in cycles
  int t1_found = 0;
  int t1_used = 0;
  long t1_cores = 0;
  long logic_cells = 0;   // mapped cells surviving after rewrite (incl. NOTs)
  long splitters = 0;
  int num_stages = 0;     // σ_PO
};

}  // namespace t1map::t1
