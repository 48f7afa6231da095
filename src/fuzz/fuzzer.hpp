/// \file fuzzer.hpp
/// \brief CEC-oracle differential fuzzing of the mapping flow.
///
/// Each iteration generates a seeded random AIG (`random_aig`) and pushes
/// it through the three Table-I configurations (1φ baseline, nφ baseline,
/// nφ + T1), asserting for every one:
///   * the flow's own checks pass (timing validation, random simulation);
///   * SAT CEC proves the materialized netlist equivalent to the source
///     AIG — the external oracle, run by the fuzzer itself so it also
///     covers pipelines built without a cec pass;
///   * no `ContractError` escapes the flow, the fault hook or the oracle
///     (a violated netlist invariant is reported as check "contract").
/// Independent of the flow, every AIG must survive AIGER (ASCII and
/// binary, byte-identical) and BLIF (digest-equal) round trips.
///
/// Failures are minimized by greedy PO removal followed by PO-cone
/// trimming (re-running only the failing check as the oracle) and dumped
/// as `.aag` repro files under `repro_dir`.
///
/// The `corrupt` hook mutates each materialized netlist before the CEC
/// oracle sees it; injecting a deliberate bug (or a thrown
/// `ContractError`) through it is how the test suite proves the fuzzer
/// actually catches and minimizes miscompiles and contract violations.

#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "fuzz/random_aig.hpp"
#include "sfq/netlist.hpp"

namespace t1map::fuzz {

struct FuzzOptions {
  int iterations = 100;
  std::uint64_t seed = 1;
  /// Size template: per-iteration PI/PO/op counts are jittered below these
  /// bounds (and the seed replaced) so one run covers many shapes.
  RandomAigOptions aig;
  int phases = 4;         // the n of the nφ and T1 configurations
  int verify_rounds = 2;  // random-sim rounds inside the flow (cheap); the
                          // fuzzer's own SAT CEC is the real oracle
  std::string repro_dir = "fuzz-repros";  // minimized .aag files land here
  /// Test-only fault injection: applied to every materialized netlist
  /// before the CEC oracle (must be deterministic for minimization).
  std::function<void(sfq::Netlist&)> corrupt;
  std::ostream* log = nullptr;  // progress/failure lines; null = quiet
};

/// One confirmed, minimized failure.
struct FuzzFailure {
  int iteration = 0;
  std::string config;  // "baseline_1phi", "baseline_<n>phi", "t1",
                       // or "roundtrip" for format checks
  std::string check;   // "flow" | "cec" | "contract" | "aiger_ascii" |
                       // "aiger_binary" | "blif"
  std::string detail;
  std::string repro_path;  // minimized .aag ("" when dumping failed)
  Aig minimized;
};

struct FuzzReport {
  int iterations = 0;
  long flows_run = 0;  // flow executions
  double seconds = 0.0;
  std::vector<FuzzFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// Runs the differential fuzzer.  Deterministic for fixed options.
FuzzReport run_fuzz(const FuzzOptions& options);

/// The generator options `run_fuzz` draws iteration `iteration`'s AIG from,
/// for a run seeded `seed` over the size template `base`: a fresh AIG seed,
/// sizes spread below `base`'s bounds.  Lets a test replay a fuzz run's
/// inputs without running its checks.
RandomAigOptions iteration_aig_options(const RandomAigOptions& base,
                                       std::uint64_t seed, int iteration);

}  // namespace t1map::fuzz
