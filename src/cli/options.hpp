/// \file options.hpp
/// \brief Command-line parsing for the `t1map` driver binary.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace t1map::cli {

/// Thrown on bad command lines; the message is user-facing.
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

struct Options {
  // Input (exactly one of the two).
  std::string gen_name;    // --gen NAME (registry or parametric, e.g. adder16)
  std::string input_path;  // --input FILE (AIGER or BLIF, auto-detected;
                           //   "-" = stdin)

  // Flow configuration.
  std::string config = "all";  // --config all|1phi|nphi|t1
  int phases = 4;              // --phases N (the n of "nphi" and "t1")
  int verify_rounds = 8;       // --verify-rounds N (random-sim self-check)
  bool run_cec = true;         // --no-cec skips SAT equivalence checking
  int threads = 1;             // --threads N (batched / parallel execution)
  bool skip_checks = false;    // --skip-checks drops timing/sim/cec passes

  // Bench harness (perf trajectory; see PERF.md).
  bool bench = false;           // --bench (per-stage wall-time measurement)
  int bench_runs = 3;           // --bench-runs N (repetitions per circuit)
  std::string bench_set;        // --bench-set small|table1|deep (empty =
                                //   small)
  std::string bench_out = "BENCH_flow.json";  // --bench-out FILE ("-"=stdout)

  // Serving mode (cached JSONL request loop; see README "Serving mode").
  bool serve = false;           // --serve (JSONL request/response loop)
  int cache_mb = 256;           // --cache-mb N (FlowCache byte budget)
  std::string serve_in = "-";   // --serve-in FILE ("-" = stdin; FIFOs work)
  int serve_batch = 16;         // --serve-batch N (max requests per dispatch)
  std::string serve_listen;     // --serve-listen unix:PATH | tcp:HOST:PORT
                                //   (empty = stream mode on --serve-in)
  std::string cache_dir;        // --cache-dir DIR (persistent disk tier)
  int drain_timeout_ms = 5000;  // --drain-timeout MS (shutdown drain bound)
  int serve_idle_ms = 0;        // --serve-idle MS (socket idle disconnect;
                                //   0 = never)

  // Differential fuzzing (see src/fuzz/fuzzer.hpp).
  int fuzz = 0;                  // --fuzz N (iterations; 0 = off)
  std::uint64_t fuzz_seed = 1;   // --fuzz-seed S (base PRNG seed)
  std::string fuzz_dir = "fuzz-repros";  // --fuzz-dir DIR (repro .aag files)
  int fuzz_nodes = 60;           // --fuzz-nodes M (max operator draws/AIG)

  // Output.
  bool json = false;      // --json (machine-readable report on stdout)
  std::string out_blif;   // --out-blif FILE (mapped netlist, last config)
  std::string out_dot;    // --out-dot FILE (stage-annotated DOT, last config)
  std::string out_aiger;  // --export-aiger FILE (source AIG; binary iff .aig)
  std::string out_verilog;  // --export-verilog FILE (mapped netlist as
                            //   structural Verilog)
  bool paper = false;     // --paper (print the published Table-I row too)

  bool list_gens = false;  // --list-gens
  bool help = false;       // --help
};

/// Parses argv; throws UsageError on malformed input.
Options parse_options(int argc, const char* const* argv);

/// The --help text.
std::string usage();

}  // namespace t1map::cli
