#include "cli/bench.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "cli/report.hpp"
#include "common/require.hpp"
#include "gen/registry.hpp"
#include "io/json.hpp"
#include "serve/json_out.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::cli {

namespace {

using Clock = std::chrono::steady_clock;

/// Small circuit subset: quick enough for CI, large enough that every stage
/// (including SAT CEC) shows measurable time.
const std::vector<std::string>& small_set() {
  static const std::vector<std::string> names = {
      "adder16", "adder64",      "mul8",  "square12",
      "voter25", "comparator16", "sin12",
  };
  return names;
}

/// Deep-netlist subset: hundreds-to-thousands of stages, exercising the
/// `t1_detect` grouping and `stage_assign` frontier sweeps on long
/// ripple/CORDIC chains rather than wide shallow logic.
const std::vector<std::string>& deep_set() {
  static const std::vector<std::string> names = {
      "adder256", "cordic32", "log2_16",
  };
  return names;
}

/// min / mean / max over `runs` samples of one stage, in milliseconds.
struct StageSamples {
  double min = std::numeric_limits<double>::max();
  double max = 0.0;
  double sum = 0.0;
  long count = 0;

  void add(double seconds) {
    const double ms = seconds * 1e3;
    min = std::min(min, ms);
    max = std::max(max, ms);
    sum += ms;
    ++count;
  }
  io::Json json() const {
    io::Json j = io::Json::object();
    j.set("min_ms", count > 0 ? min : 0.0);
    // A single run has no spread: mean == min == max, and downstream
    // tooling would read the duplicated numbers as a (degenerate) jitter
    // measurement.  Only emit the jitter fields when they carry one.
    if (count > 1) {
      j.set("mean_ms", sum / static_cast<double>(count));
      j.set("max_ms", max);
    }
    return j;
  }
};

/// One per-circuit JSON row and the passes whose times it sums per run.
struct BenchRow {
  const char* name;
  std::array<const char*, 2> passes;  // second entry may be null
};

/// The rows in output order; `total` (the whole run) follows them.
constexpr BenchRow kRows[] = {
    {"map", {"map"}},
    {"t1_detect", {"t1"}},
    {"stage_assign", {"stage"}},
    {"dff_insert", {"dff"}},
    {"self_check", {"timing", "sim"}},
    {"cec", {"cec"}},
};

struct CircuitBench {
  std::array<StageSamples, std::size(kRows)> rows;
  StageSamples total;

  /// A row takes a sample only from runs in which one of its passes ran.
  void add(const t1::EngineResult& flow) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      double seconds = 0.0;
      bool ran = false;
      for (const t1::PassTime& t : flow.pass_times) {
        for (const char* pass : kRows[r].passes) {
          if (pass != nullptr && t.pass == pass) {
            seconds += t.seconds;
            ran = true;
          }
        }
      }
      if (ran) rows[r].add(seconds);
    }
    total.add(flow.total_seconds);
  }
};

/// Rows whose passes never ran (`cec` under --no-cec, `self_check` under
/// --skip-checks) are left out rather than reported as 0 ms.
io::Json bench_json(const CircuitBench& b) {
  io::Json stages = io::Json::object();
  for (std::size_t r = 0; r < b.rows.size(); ++r) {
    if (b.rows[r].count == 0) continue;
    stages.set(kRows[r].name, b.rows[r].json());
  }
  stages.set("total", b.total.json());
  return stages;
}

void write_bench_out(const Options& opts, const io::Json& root) {
  if (opts.bench_out == "-") {
    root.write(std::cout, 2);
    std::cout << '\n';
  } else {
    std::ofstream ofs(opts.bench_out);
    T1MAP_REQUIRE(ofs.good(), "cannot open for writing: " + opts.bench_out);
    root.write(ofs, 2);
    ofs << '\n';
    std::cerr << "t1map: bench trajectory written to " << opts.bench_out
              << std::endl;
  }
}

}  // namespace

int run_bench(const Options& opts) {
  // Option validation guarantees --gen and --bench-set are exclusive;
  // an empty bench_set means the default small subset.
  const std::vector<std::string> circuits =
      !opts.gen_name.empty()
          ? std::vector<std::string>{opts.gen_name}
          : (opts.bench_set == "table1"
                 ? gen::table1_names()
                 : (opts.bench_set == "deep" ? deep_set() : small_set()));

  t1::FlowParams params;
  params.num_phases = opts.phases;
  params.use_t1 = true;
  params.verify_rounds = opts.verify_rounds;

  const bool with_cec = opts.run_cec && !opts.skip_checks;
  // One engine for the whole harness: its scratch state (cut arenas, SAT
  // solver, sim buffers) is reused across every --bench-runs repetition and
  // every circuit, which is exactly how a long-lived mapping service runs.
  // The pipeline is the same one report mode would run.
  t1::FlowEngine engine(build_pipeline(opts));

  // What was measured, and on which host and build, so snapshots from
  // different machines stay tellable apart.
  io::Json root = io::Json::object();
  root.set("bench", "flow");
  root.set("config", "t1");
  root.set("phases", opts.phases);
  root.set("runs", opts.bench_runs);
  root.set("verify_rounds", opts.verify_rounds);
  root.set("cec", with_cec);
  root.set("nproc", std::thread::hardware_concurrency());
  root.set("compiler", __VERSION__);
  root.set("build_type", T1MAP_BUILD_TYPE);
  io::Json circuits_json = io::Json::object();

  std::vector<Aig> aigs;
  aigs.reserve(circuits.size());

  for (const std::string& name : circuits) {
    std::cerr << "t1map: bench " << name << " (" << opts.bench_runs
              << " runs) ..." << std::endl;
    aigs.push_back(gen::make_named(name));
    const Aig& aig = aigs.back();
    CircuitBench bench;
    t1::FlowStats stats;

    for (int run = 0; run < opts.bench_runs; ++run) {
      const t1::EngineResult flow = engine.run(aig, params);
      T1MAP_REQUIRE(flow.ok(), "bench: flow failed on " + name + ": " +
                                   flow.diagnostics.first_error());
      T1MAP_REQUIRE(!with_cec || flow.cec == "equivalent",
                    "bench: CEC did not prove equivalence on " + name);
      bench.add(flow);
      stats = flow.stats;
    }

    io::Json entry = io::Json::object();
    entry.set("input", serve::aig_input_json(aig, /*with_depth=*/false));
    entry.set("stats", serve::flow_stats_json(stats));
    entry.set("stages", bench_json(bench));
    circuits_json.set(name, std::move(entry));

    std::fprintf(stderr, "t1map: bench %-14s total %.1f ms (mean of %d)\n",
                 name.c_str(),
                 bench.total.sum / static_cast<double>(bench.total.count),
                 opts.bench_runs);
  }
  root.set("circuits", std::move(circuits_json));

  // Batched throughput: the whole circuit set through run_many.  With
  // --threads > 1 this measures multi-worker scaling (a single-circuit set
  // still emits the entry, with the worker count clamped to 1); stats must
  // not depend on the thread count, which the engine guarantees and CI's
  // TSan job checks.
  if (opts.threads > 1) {
    std::vector<const Aig*> batch;
    batch.reserve(aigs.size());
    for (const Aig& aig : aigs) batch.push_back(&aig);

    const Clock::time_point t0 = Clock::now();
    const std::vector<t1::EngineResult> results =
        engine.run_many(batch, params, opts.threads);
    const double wall_ms =
        1e3 * std::chrono::duration<double>(Clock::now() - t0).count();
    for (std::size_t i = 0; i < results.size(); ++i) {
      T1MAP_REQUIRE(results[i].ok(), "bench: run_many failed on " +
                                         circuits[i] + ": " +
                                         results[i].diagnostics.first_error());
    }

    io::Json batch_json = io::Json::object();
    batch_json.set("threads", opts.threads);
    batch_json.set("circuits", static_cast<long>(batch.size()));
    batch_json.set("wall_ms", wall_ms);
    root.set("batch", std::move(batch_json));
    std::fprintf(stderr,
                 "t1map: bench batch of %zu circuits on %d threads: %.1f ms\n",
                 batch.size(), opts.threads, wall_ms);
  }

  write_bench_out(opts, root);
  return 0;
}

}  // namespace t1map::cli
