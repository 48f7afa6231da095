// t1bench: the repository benchmark program.
//
//   t1bench --workload table1|verify|verify_par|serve --seed N
//           --seconds S --trace 0|1 [--commit SHA] [--source-digest HEX]
//           [--work-dir DIR]
//
// Prints a run header, a human-readable metric table, and as its last line
// one JSON object {correct, attempted, failed, metrics}.  With --trace 0
// the metrics are the end-to-end set; with --trace 1 they are the
// per-layer set, and the spans behind them are written as a Chrome trace
// to DIR/trace-<workload>-seed<N>.json.  perfbench/README.md has the
// metric definitions.

#include <sched.h>

#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "common/require.hpp"
#include "io/json.hpp"
#include "trace.hpp"

namespace t1bench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports (BENCHMARK.json).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},  {"wall_s", "s"},  {"cpu_s", "s"},
    {"peak_rss_mb", "MiB"}, {"rps", "1/s"}, {"p50_ms", "ms"},
    {"p99_ms", "ms"},  {"area_jj", "JJ"},
};

/// The per-layer metrics of a traced run; a workload that does not
/// exercise a layer reports it as 0.
constexpr MetricSpec kPerLayer[] = {
    {"sfq.map_ms", "ms"},          {"t1.detect_ms", "ms"},
    {"t1.found", "count"},         {"t1.used", "count"},
    {"retime.stage_ms", "ms"},     {"retime.dff_ms", "ms"},
    {"retime.dffs_t1", "count"},   {"retime.dffs_nphi", "count"},
    {"t1.check_ms", "ms"},         {"sat.cec_ms", "ms"},
    {"sat.cec_share", "ratio"},    {"sat.conflicts", "count"},
    {"common.cpu_per_wall", "ratio"}, {"io.parse_ms", "ms"},
    {"serve.hash_ms", "ms"},       {"serve.flow_ms", "ms"},
    {"serve.overhead_ms", "ms"},   {"serve.mem_hits", "count"},
    {"serve.disk_hits", "count"},  {"serve.misses", "count"},
    {"serve.boot_ms", "ms"},       {"serve.edit_redraws", "count"},
    {"memo.map_reuse", "ratio"},   {"memo.t1_reuse", "ratio"},
    {"memo.t1_exact", "count"},    {"memo.stage_splices", "count"},
    {"cold_p50_ms", "ms"},         {"hit_p50_ms", "ms"},
    {"edit_p50_ms", "ms"},         {"disk_p50_ms", "ms"},
    {"area_ratio", "ratio"},       {"dff_ratio", "ratio"},
    {"failed_share", "ratio"},     {"trace.overhead_pct", "%"},
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "t1bench: " << error << "\n"
            << "usage: t1bench --workload table1|verify|verify_par|serve "
               "--seed N --seconds S --trace 0|1 [--commit SHA] "
               "[--source-digest HEX] [--work-dir DIR]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--commit") {
        o.commit = value;
      } else if (flag == "--source-digest") {
        o.source_digest = value;
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.workload != "table1" && o.workload != "verify" &&
      o.workload != "verify_par" && o.workload != "serve") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

t1map::io::Json run_header(const Options& o) {
  t1map::io::Json h = t1map::io::Json::object();
  h.set("workload", o.workload);
  h.set("seed", static_cast<double>(o.seed));
  h.set("seconds", o.seconds);
  h.set("trace", o.trace);
  h.set("nproc", available_cpus());
  h.set("compiler", std::string("gcc ") + __VERSION__);
  h.set("build_type", T1BENCH_BUILD_TYPE);
  h.set("commit", o.commit);
  h.set("source_digest", o.source_digest);
  return h;
}

std::string compact(const t1map::io::Json& j) {
  std::ostringstream os;
  j.write(os, -1);
  return os.str();
}

void print_table(const char* title, const std::map<std::string, Metric>& m) {
  std::cout << title << '\n';
  for (const auto& [name, metric] : m) {
    std::cout << "  " << std::left << std::setw(22) << name << std::right
              << std::setw(16) << std::setprecision(6) << metric.value << ' '
              << std::left << std::setw(6) << metric.unit;
    if (metric.samples > 0) {
      std::cout << " (median or percentile of " << metric.samples << ")";
    }
    std::cout << std::right << '\n';
  }
}

int run(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  const t1map::io::Json header = run_header(options);
  std::cout << "t1bench header " << compact(header) << '\n';

  std::unique_ptr<Tracer> tracer;
  if (options.trace) tracer = std::make_unique<Tracer>();
  Outcome out = options.workload == "serve"
                    ? run_serve_workload(options, tracer.get())
                    : run_flow_workload(options, tracer.get());
  out.per_layer["failed_share"] = {
      out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted
                        : 0.0,
      "ratio", 0};

  if (tracer != nullptr) {
    std::filesystem::create_directories(options.work_dir);
    const std::string path = options.work_dir + "/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    tracer->write_chrome_json(path, header);
    std::cout << "t1bench trace " << path << " (" << tracer->spans().size()
              << " spans)\n";
  }
  print_table("end-to-end (untraced passes):", out.end_to_end);
  print_table(options.trace ? "per-layer (traced run):"
                            : "per-layer, measured without tracing:",
              out.per_layer);
  std::cout << "checks: " << out.attempted << " attempted, " << out.failed
            << " failed\n";
  for (const std::string& failure : out.failures) {
    std::cerr << "t1bench: FAILED " << failure << '\n';
  }

  // The result line: exactly the selected metric set.
  std::ostringstream line;
  t1map::io::JsonWriter w(line);
  w.begin_object().key("correct").value(out.failed == 0);
  w.key("attempted").value(out.attempted).key("failed").value(out.failed);
  w.key("metrics").begin_object();
  const auto emit = [&](const MetricSpec& spec, bool required,
                        const std::map<std::string, Metric>& from) {
    const auto it = from.find(spec.name);
    T1MAP_REQUIRE(!required || it != from.end(),
                  std::string("workload did not report ") + spec.name);
    w.key(spec.name).begin_object();
    w.key("value").value(it != from.end() ? it->second.value : 0.0);
    w.key("unit").value(spec.unit).end_object();
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, false, out.per_layer);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, true, out.end_to_end);
  }
  w.end_object().end_object();
  std::cout << line.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace t1bench

int main(int argc, char** argv) {
  try {
    return t1bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "t1bench: error: " << e.what() << '\n';
    return 1;
  }
}
