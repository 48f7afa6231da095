#include "cli/fuzz_cmd.hpp"

#include <cstdio>
#include <iostream>

#include "fuzz/fuzzer.hpp"

namespace t1map::cli {

int run_fuzz_cmd(const Options& opts) {
  fuzz::FuzzOptions fopts;
  fopts.iterations = opts.fuzz;
  fopts.seed = opts.fuzz_seed;
  fopts.aig.num_ops = static_cast<std::uint32_t>(opts.fuzz_nodes);
  fopts.phases = opts.phases;
  fopts.verify_rounds = opts.verify_rounds > 8 ? 8 : opts.verify_rounds;
  fopts.repro_dir = opts.fuzz_dir;
  fopts.log = &std::cerr;

  const fuzz::FuzzReport report = fuzz::run_fuzz(fopts);

  char rate[32];
  std::snprintf(rate, sizeof rate, "%.1f",
                report.seconds > 0 ? report.iterations / report.seconds : 0.0);
  std::cout << "fuzz: " << report.iterations << " iterations, "
            << report.flows_run << " flow runs, " << report.failures.size()
            << " failure(s) in " << static_cast<int>(report.seconds * 1000)
            << " ms (" << rate << " AIGs/s, seed " << opts.fuzz_seed << ")\n";
  for (const fuzz::FuzzFailure& failure : report.failures) {
    std::cout << "  iteration " << failure.iteration << " [" << failure.config
              << "/" << failure.check << "] " << failure.detail;
    if (!failure.repro_path.empty()) {
      std::cout << " -> " << failure.repro_path;
    }
    std::cout << '\n';
  }
  return report.ok() ? 0 : 1;
}

}  // namespace t1map::cli
