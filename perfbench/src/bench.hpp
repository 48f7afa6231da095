/// \file bench.hpp
/// \brief Shared vocabulary of the t1bench program: options, measurement
/// helpers and the per-run outcome every workload fills.
///
/// t1bench measures the layer libraries from outside, by timing calls
/// to their public functions.  A workload reports two metric sets: the
/// end-to-end metrics of untraced passes and, in a traced run, the
/// per-layer metrics derived from the spans of `Tracer` (trace.hpp).

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "t1/flow_engine.hpp"

namespace t1bench {

class Tracer;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU seconds of the whole process (every thread).
double process_cpu_s();

/// Peak resident set size of the process, in MiB.
double peak_rss_mb();

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// Nearest-rank percentile, `p` in (0, 100]; 0 when empty.
double percentile(std::vector<double> values, double p);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Run-header fields supplied by the caller (run.py).
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  /// Directory for scratch files (serve cache dirs, sockets) and traces.
  std::string work_dir = ".bench_build/run";
};

/// One reported number.  `samples` is the count a median or percentile was
/// taken over (0 for counts, ratios and single measurements).
struct Metric {
  double value = 0.0;
  std::string unit;
  long samples = 0;
};

/// What a workload run produces.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  // first few failure messages
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  /// Counts one correctness check; a false `ok` is a failure.
  void check(bool ok, const std::string& what);
};

/// Flow parameters of a Table-I configuration name ("1phi", "nphi", "t1"),
/// with the same defaults a serve request gets (4 phases, 8 sim rounds).
t1map::t1::FlowParams params_for_config(const std::string& config);

/// Compact JSON of the Table-I statistics block: the byte string the
/// correctness checks compare.
std::string stats_signature(const t1map::t1::FlowStats& stats);

/// Time budget of one run: the untraced (and, when tracing, the traced)
/// passes of a workload repeat until their share of `--seconds` is spent,
/// with at least `min_passes` each.
struct Budget {
  double untraced_s = 0.0;
  double traced_s = 0.0;
  int min_passes = 3;
};
Budget budget_for(const Options& options);

/// Times a set-up step `make` at least once and until 10 ms are spent,
/// appending each repeat's seconds to `seconds`, and returns the last
/// product; earlier products are released untimed.  Workloads call it
/// before the first pass and again after every pass, so the median
/// `setup_s` spans the same host conditions as the passes, even when one
/// set-up takes well under a millisecond.
template <class Make>
auto time_setup(Make&& make, std::vector<double>& seconds) {
  decltype(make()) product{};
  double spent = 0.0;
  do {
    { const auto released = std::move(product); }
    const Clock::time_point t0 = Clock::now();
    product = make();
    seconds.push_back(seconds_since(t0));
    spent += seconds.back();
  } while (spent < 0.01);
  return product;
}

/// Runs `pipeline` on `aig` pass by pass through `Pass::run` on a
/// bench-owned `FlowContext`, one span per pass inside a "job" span.  The
/// `cec` pass is unrolled into the `sat::check_equivalence` call
/// `SatCecPass` makes, so its conflicts add to `*conflicts` (when given).
/// A memo on `scratch` is used exactly as `FlowEngine` would use it.
t1map::t1::FlowContext run_passes(const t1map::t1::Pipeline& pipeline,
                                  const t1map::Aig& aig,
                                  const t1map::t1::FlowParams& params,
                                  t1map::t1::FlowScratch& scratch,
                                  Tracer& tracer, long request,
                                  const std::string& label,
                                  std::int64_t* conflicts);

/// Adds the per-layer flow timings derived from `run_passes` spans
/// (`sfq.map_ms`, `t1.detect_ms`, `retime.stage_ms`, `retime.dff_ms`,
/// `t1.check_ms`, `sat.cec_ms`, `sat.cec_share`), averaged over `passes`.
void add_pass_layer_metrics(const Tracer& tracer, long passes,
                            std::map<std::string, Metric>& layer);

Outcome run_flow_workload(const Options& options, Tracer* tracer);
Outcome run_serve_workload(const Options& options, Tracer* tracer);

}  // namespace t1bench
