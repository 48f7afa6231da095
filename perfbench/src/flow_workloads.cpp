// The batch-flow workloads: `table1` (the paper's eight circuits under
// 1phi/nphi/t1, no CEC), `verify` (the t1 config with SAT CEC on five
// arithmetic circuits, serial) and `verify_par` (the same jobs at two
// threads).  Untraced passes time `FlowEngine::run`; traced passes run the
// same pipeline pass by pass (`run_passes`) to attribute time to layers.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string_view>

#include "bench.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "gen/registry.hpp"
#include "sat/cec.hpp"
#include "t1/flow_engine.hpp"
#include "trace.hpp"

namespace t1bench {

using namespace t1map;

t1::FlowContext run_passes(const t1::Pipeline& pipeline, const Aig& aig,
                           const t1::FlowParams& params,
                           t1::FlowScratch& scratch, Tracer& tracer,
                           long request, const std::string& label,
                           std::int64_t* conflicts) {
  const TraceScope job_span(&tracer, "job", request, label);
  t1::FlowContext ctx;
  ctx.aig = &aig;
  ctx.params = params;
  ctx.scratch = &scratch;
  for (std::size_t i = 0; i < pipeline.size(); ++i) {
    const t1::Pass& pass = pipeline[i];
    const TraceScope span(&tracer, pass.name(), request);
    if (std::string_view(pass.name()) != "cec") {
      if (!pass.run(ctx)) break;
      continue;
    }
    // The cec pass, unrolled into the call SatCecPass makes, so the
    // solver's conflict count is visible from outside.
    sat::CecOptions cec_options;
    cec_options.conflict_limit = params.cec_conflict_limit;
    cec_options.pool = scratch.pool();
    cec_options.worker_solvers = &scratch.cec_solvers;
    cec_options.portfolio = params.sat_portfolio;
    const sat::CecResult result = sat::check_equivalence(
        aig, ctx.materialized.netlist, cec_options, scratch.solver);
    if (conflicts != nullptr) *conflicts += result.conflicts;
    ctx.cec = t1::cec_verdict_name(result.verdict);
    if (result.verdict == sat::CecResult::Verdict::kNotEquivalent) {
      ctx.fail(t1::FlowStatus::kNotEquivalent, "cec",
               "SAT CEC refuted equivalence");
      break;
    }
  }
  return ctx;
}

void add_pass_layer_metrics(const Tracer& tracer, long passes,
                            std::map<std::string, Metric>& layer) {
  std::map<std::string, double> self_ms = tracer.self_ms_by_name();
  double job_ms = 0.0;  // everything under the "job" spans
  for (const char* name :
       {"job", "map", "t1", "stage", "dff", "timing", "sim", "cec"}) {
    job_ms += self_ms[name];
  }
  const double n = static_cast<double>(passes);
  layer["sfq.map_ms"] = {self_ms["map"] / n, "ms", passes};
  layer["t1.detect_ms"] = {self_ms["t1"] / n, "ms", passes};
  layer["retime.stage_ms"] = {self_ms["stage"] / n, "ms", passes};
  layer["retime.dff_ms"] = {self_ms["dff"] / n, "ms", passes};
  layer["t1.check_ms"] = {(self_ms["timing"] + self_ms["sim"]) / n, "ms",
                          passes};
  layer["sat.cec_ms"] = {self_ms["cec"] / n, "ms", passes};
  layer["sat.cec_share"] = {job_ms > 0 ? self_ms["cec"] / job_ms : 0.0,
                            "ratio", passes};
}

namespace {

std::vector<Aig> make_inputs(const std::vector<std::string>& circuits) {
  std::vector<Aig> aigs;
  aigs.reserve(circuits.size());
  for (const std::string& name : circuits) {
    aigs.push_back(gen::make_named(name));
  }
  return aigs;
}

struct FlowSpec {
  std::vector<std::string> circuits;
  std::vector<std::string> configs;
  bool with_cec = false;
  int threads = 1;
};

FlowSpec spec_for(const std::string& workload) {
  const std::vector<std::string> verify_set = {
      "adder64", "comparator16", "voter25", "square12", "mul8"};
  if (workload == "table1") {
    return {gen::table1_names(), {"1phi", "nphi", "t1"}, false, 1};
  }
  if (workload == "verify") return {verify_set, {"t1"}, true, 1};
  if (workload == "verify_par") return {verify_set, {"t1"}, true, 2};
  T1MAP_REQUIRE(false, "unknown flow workload: " + workload);
  return {};
}

struct Job {
  std::size_t circuit = 0;  // index into FlowSpec::circuits
  std::string config;
  t1::FlowParams params;
  std::string label;  // "circuit/config"
};

std::vector<Job> make_jobs(const FlowSpec& spec) {
  std::vector<Job> jobs;
  for (std::size_t c = 0; c < spec.circuits.size(); ++c) {
    for (const std::string& config : spec.configs) {
      jobs.push_back(Job{c, config, params_for_config(config),
                         spec.circuits[c] + "/" + config});
    }
  }
  return jobs;
}

std::unique_ptr<t1::FlowEngine> make_engine(const FlowSpec& spec) {
  auto engine = std::make_unique<t1::FlowEngine>(
      t1::Pipeline::default_flow(spec.with_cec));
  // Every job pays a cold run, as one-shot CLI report mode does.
  engine->set_incremental(false);
  engine->set_threads(spec.threads);
  return engine;
}

void shuffle(std::vector<std::size_t>& order, Rng& rng) {
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
}

/// The reference every job must reproduce: an untimed serial cold run of
/// the same circuit and config without CEC (CEC never changes the stats).
std::vector<t1::FlowStats> oracle_stats(const std::vector<Aig>& inputs,
                                        const std::vector<Job>& jobs) {
  t1::FlowEngine engine(t1::Pipeline::default_flow(false));
  engine.set_incremental(false);
  std::vector<t1::FlowStats> stats;
  for (const Job& job : jobs) {
    const t1::EngineResult result = engine.run(inputs[job.circuit], job.params);
    T1MAP_REQUIRE(result.ok(), "oracle run failed on " + job.label);
    stats.push_back(result.stats);
  }
  return stats;
}

/// Geometric mean over circuits of field(t1) / field(nphi); 0 when the
/// workload lacks either config.
double geomean_ratio(const std::vector<Job>& jobs,
                     const std::vector<t1::FlowStats>& stats,
                     double (*field)(const t1::FlowStats&)) {
  double log_sum = 0.0;
  int n = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].config != "t1") continue;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (jobs[j].config != "nphi" || jobs[j].circuit != jobs[i].circuit) {
        continue;
      }
      log_sum += std::log(field(stats[i]) / field(stats[j]));
      ++n;
    }
  }
  return n > 0 ? std::exp(log_sum / n) : 0.0;
}

}  // namespace

Outcome run_flow_workload(const Options& options, Tracer* tracer) {
  const FlowSpec spec = spec_for(options.workload);
  Outcome out;

  // Set-up: input generation + engine construction.
  const auto set_up = [&] {
    return std::pair(make_inputs(spec.circuits), make_engine(spec));
  };
  std::vector<double> setup_s;
  auto [inputs, engine] = time_setup(set_up, setup_s);
  const std::vector<Job> jobs = make_jobs(spec);
  const std::vector<t1::FlowStats> expected = oracle_stats(inputs, jobs);

  Rng rng(options.seed);
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), 0);
  const Budget budget = budget_for(options);

  // Untraced passes: what a user of FlowEngine::run sees.
  std::vector<double> wall_s, cpu_s, latency_ms;
  std::vector<t1::EngineResult> results;
  const Clock::time_point untraced_start = Clock::now();
  while (static_cast<int>(wall_s.size()) < budget.min_passes ||
         seconds_since(untraced_start) < budget.untraced_s) {
    shuffle(order, rng);
    results.assign(jobs.size(), t1::EngineResult{});
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    for (const std::size_t j : order) {
      const Clock::time_point tj = Clock::now();
      results[j] = engine->run(inputs[jobs[j].circuit], jobs[j].params);
      latency_ms.push_back(1e3 * seconds_since(tj));
    }
    wall_s.push_back(seconds_since(t0));
    cpu_s.push_back(process_cpu_s() - cpu0);
    time_setup(set_up, setup_s);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const t1::EngineResult& r = results[j];
      out.check(r.ok() &&
                    stats_signature(r.stats) == stats_signature(expected[j]) &&
                    (!spec.with_cec || r.cec == "equivalent"),
                jobs[j].label + ": status " + t1::flow_status_name(r.status) +
                    ", cec " + r.cec + ", stats " + stats_signature(r.stats));
    }
  }

  long area_jj = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].config == "t1") area_jj += expected[j].area_jj;
  }
  const double wall = median(wall_s);
  const long passes = static_cast<long>(wall_s.size());
  const long n_latency = static_cast<long>(latency_ms.size());
  auto& e2e = out.end_to_end;
  e2e["setup_s"] = {median(setup_s), "s",
                    static_cast<long>(setup_s.size())};
  e2e["wall_s"] = {wall, "s", passes};
  e2e["cpu_s"] = {median(cpu_s), "s", passes};
  e2e["rps"] = {static_cast<double>(jobs.size()) / wall, "1/s", passes};
  e2e["p50_ms"] = {percentile(latency_ms, 50), "ms", n_latency};
  e2e["p99_ms"] = {percentile(latency_ms, 99), "ms", n_latency};
  e2e["area_jj"] = {static_cast<double>(area_jj), "JJ", 0};

  auto& layer = out.per_layer;
  layer["area_ratio"] = {
      geomean_ratio(jobs, expected,
                    [](const t1::FlowStats& s) { return 1.0 * s.area_jj; }),
      "ratio", 0};
  layer["dff_ratio"] = {
      geomean_ratio(jobs, expected,
                    [](const t1::FlowStats& s) { return 1.0 * s.dffs; }),
      "ratio", 0};
  layer["common.cpu_per_wall"] = {median(cpu_s) / wall, "ratio", passes};

  if (tracer != nullptr) {
    // Traced passes: the same pipeline, pass by pass on a bench-owned
    // context over the engine's warm scratch (no memo: every job stays
    // cold), so traced and untraced passes differ only by the tracing.
    const t1::Pipeline pipeline = t1::Pipeline::default_flow(spec.with_cec);
    t1::FlowScratch& scratch = engine->scratch();
    std::vector<double> traced_wall_s;
    std::int64_t conflicts = 0;
    double t1_found = 0, t1_used = 0, dffs_t1 = 0, dffs_nphi = 0;
    double map_total = 0, map_reused = 0, t1_total = 0, t1_reused = 0;
    double t1_exact = 0, stage_splices = 0;
    long request = 0;
    std::vector<t1::FlowContext> contexts;
    const Clock::time_point traced_start = Clock::now();
    while (static_cast<int>(traced_wall_s.size()) < budget.min_passes ||
           seconds_since(traced_start) < budget.traced_s) {
      shuffle(order, rng);
      contexts.clear();  // released untimed, as the untraced results are
      contexts.resize(jobs.size());
      const Clock::time_point t0 = Clock::now();
      for (const std::size_t j : order) {
        contexts[j] = run_passes(pipeline, inputs[jobs[j].circuit],
                                 jobs[j].params, scratch, *tracer, request++,
                                 jobs[j].label, &conflicts);
      }
      traced_wall_s.push_back(seconds_since(t0));
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const Job& job = jobs[j];
        const t1::FlowContext& ctx = contexts[j];
        const t1::EngineResult& engine_result = results[j];
        out.check(ctx.status == engine_result.status &&
                      stats_signature(ctx.stats) ==
                          stats_signature(engine_result.stats) &&
                      ctx.cec == engine_result.cec,
                  job.label + ": pass-by-pass run differs from the engine (" +
                      stats_signature(ctx.stats) + ", cec " + ctx.cec + ")");
        if (job.config == "t1") {
          t1_found += ctx.stats.t1_found;
          t1_used += ctx.stats.t1_used;
          dffs_t1 += static_cast<double>(ctx.stats.dffs);
        } else if (job.config == "nphi") {
          dffs_nphi += static_cast<double>(ctx.stats.dffs);
        }
        map_total += ctx.reuse.map_cones_total;
        map_reused += ctx.reuse.map_cones_reused;
        t1_total += ctx.reuse.t1_cones_total;
        t1_reused += ctx.reuse.t1_cones_reused;
        t1_exact += ctx.reuse.t1_exact ? 1 : 0;
        stage_splices += ctx.reuse.stage_spliced ? 1 : 0;
      }
    }

    const double n = static_cast<double>(traced_wall_s.size());
    const long samples = static_cast<long>(traced_wall_s.size());
    add_pass_layer_metrics(*tracer, samples, layer);
    layer["sat.conflicts"] = {static_cast<double>(conflicts) / n, "count", 0};
    layer["t1.found"] = {t1_found / n, "count", 0};
    layer["t1.used"] = {t1_used / n, "count", 0};
    layer["retime.dffs_t1"] = {dffs_t1 / n, "count", 0};
    layer["retime.dffs_nphi"] = {dffs_nphi / n, "count", 0};
    layer["memo.map_reuse"] = {map_total > 0 ? map_reused / map_total : 0.0,
                               "ratio", 0};
    layer["memo.t1_reuse"] = {t1_total > 0 ? t1_reused / t1_total : 0.0,
                              "ratio", 0};
    layer["memo.t1_exact"] = {t1_exact / n, "count", 0};
    layer["memo.stage_splices"] = {stage_splices / n, "count", 0};
    layer["trace.overhead_pct"] = {
        100.0 * (median(traced_wall_s) - wall) / wall, "%", samples};
  }

  e2e["peak_rss_mb"] = {peak_rss_mb(), "MiB", 0};
  return out;
}

}  // namespace t1bench
