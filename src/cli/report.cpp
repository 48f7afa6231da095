#include "cli/report.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "common/require.hpp"
#include "gen/registry.hpp"
#include "serve/json_out.hpp"

namespace t1map::cli {

namespace {

std::string nphi_key(int phases) {
  return "baseline_" + std::to_string(phases) + "phi";
}

/// One configuration on its own engine; throws ContractError when a check
/// pass failed so the driver exits non-zero.
ConfigResult run_one_config(const Aig& aig, const std::string& key,
                            const Options& opts) {
  ConfigResult result;
  result.key = key;
  result.params = config_params(key, opts);

  t1::FlowEngine engine(build_pipeline(opts));
  result.flow = engine.run(aig, result.params);
  T1MAP_REQUIRE(result.flow.ok(),
                "config " + key + " failed: " +
                    result.flow.diagnostics.first_error());
  return result;
}

}  // namespace

std::vector<std::string> selected_configs(const Options& opts) {
  std::vector<std::string> keys;
  const bool all = opts.config == "all";
  if (all || opts.config == "1phi") keys.push_back("baseline_1phi");
  if ((all && opts.phases != 1) || opts.config == "nphi") {
    keys.push_back(nphi_key(opts.phases));
  }
  if (all || opts.config == "t1") keys.push_back("t1");
  return keys;
}

t1::Pipeline build_pipeline(const Options& opts) {
  return t1::Pipeline::default_flow(opts.run_cec, opts.skip_checks);
}

t1::FlowParams config_params(const std::string& key, const Options& opts) {
  t1::FlowParams params;
  params.verify_rounds = opts.verify_rounds;
  if (key == "baseline_1phi") {
    params.num_phases = 1;
    params.use_t1 = false;
  } else if (key == "t1") {
    params.num_phases = opts.phases;
    params.use_t1 = true;
  } else {
    T1MAP_REQUIRE(key == nphi_key(opts.phases),
                  "config_params: unknown configuration key " + key);
    params.num_phases = opts.phases;
    params.use_t1 = false;
  }
  return params;
}

std::vector<ConfigResult> run_configs(const Aig& aig,
                                      const std::vector<std::string>& keys,
                                      const Options& opts) {
  std::vector<ConfigResult> results(keys.size());

  const bool parallel = opts.threads > 1 && keys.size() > 1;
  if (!opts.json) {
    if (parallel) {
      std::cerr << "t1map: running " << keys.size() << " configurations on "
                << std::min<int>(opts.threads,
                                 static_cast<int>(keys.size()))
                << " threads ..." << std::endl;
    } else {
      for (const std::string& key : keys) {
        std::cerr << "t1map: running " << key << " ..." << std::endl;
      }
    }
  }
  // Each configuration brings its own engine (and scratch); the worker's
  // scratch goes unused.
  t1::for_each_with_scratch(keys.size(), opts.threads,
                            [&](std::size_t i, t1::FlowScratch& /*worker*/) {
                              results[i] = run_one_config(aig, keys[i], opts);
                            });
  return results;
}

const ConfigResult* find_config(const Report& report,
                                const std::string& key) {
  for (const ConfigResult& c : report.configs) {
    if (c.key == key) return &c;
  }
  return nullptr;
}

io::Json report_json(const Report& report) {
  io::Json root = io::Json::object();
  root.set("design", report.design);
  root.set("source", report.source);

  root.set("input", serve::input_json(report.num_pis, report.num_pos,
                                      report.num_ands, report.depth));
  root.set("phases", report.phases);

  io::Json configs = io::Json::object();
  for (const ConfigResult& c : report.configs) {
    io::Json j = io::Json::object();
    j.set("phases", c.params.num_phases);
    j.set("use_t1", c.params.use_t1);
    // The Table-I block comes from the shared emitter (one field-name
    // authority across report/bench/serve), flattened into the config
    // object to keep the long-standing report schema.
    const io::Json stats = serve::flow_stats_json(c.flow.stats);
    for (const auto& [key, value] : stats.members()) {
      j.set(key, value);
    }
    j.set("cec", c.flow.cec);
    j.set("seconds", c.flow.total_seconds);
    configs.set(c.key, std::move(j));
  }
  root.set("configs", std::move(configs));

  if (const gen::PaperRow* row = gen::paper_row(report.design)) {
    io::Json paper = io::Json::object();
    paper.set("t1_found", row->t1_found);
    paper.set("t1_used", row->t1_used);
    io::Json dff = io::Json::object();
    dff.set("1phi", row->dff_1p);
    dff.set("4phi", row->dff_4p);
    dff.set("t1", row->dff_t1);
    paper.set("dffs", std::move(dff));
    io::Json area = io::Json::object();
    area.set("1phi", row->area_1p);
    area.set("4phi", row->area_4p);
    area.set("t1", row->area_t1);
    paper.set("jj_total", std::move(area));
    io::Json depth = io::Json::object();
    depth.set("1phi", row->depth_1p);
    depth.set("4phi", row->depth_4p);
    depth.set("t1", row->depth_t1);
    paper.set("depth_cycles", std::move(depth));
    root.set("paper_table1", std::move(paper));
  }
  return root;
}

std::string report_text(const Report& report, bool with_paper) {
  std::ostringstream os;
  char line[256];

  std::snprintf(line, sizeof(line),
                "%s (%s): %u PIs, %u POs, %u AND nodes, depth %d\n\n",
                report.design.c_str(), report.source.c_str(), report.num_pis,
                report.num_pos, report.num_ands, report.depth);
  os << line;

  std::snprintf(line, sizeof(line),
                "%-16s %6s %8s %8s %9s %9s %6s %6s %12s %8s\n", "config",
                "phases", "T1 used", "logic", "splitters", "DFFs", "JJs",
                "depth", "CEC", "time");
  os << line;
  for (const ConfigResult& c : report.configs) {
    const t1::FlowStats& s = c.flow.stats;
    std::snprintf(line, sizeof(line),
                  "%-16s %6d %8d %8ld %9ld %9ld %6ld %6d %12s %7.2fs\n",
                  c.key.c_str(), c.params.num_phases, s.t1_used,
                  s.logic_cells, s.splitters, s.dffs, s.area_jj,
                  s.depth_cycles, c.flow.cec.c_str(), c.flow.total_seconds);
    os << line;
  }

  const ConfigResult* t1c = find_config(report, "t1");
  const ConfigResult* base = nullptr;
  for (const ConfigResult& c : report.configs) {
    if (c.key != "t1" && c.key != "baseline_1phi") base = &c;
  }
  if (t1c != nullptr && base != nullptr && base->flow.stats.area_jj > 0) {
    const double jj_ratio = static_cast<double>(t1c->flow.stats.area_jj) /
                            static_cast<double>(base->flow.stats.area_jj);
    const double dff_ratio =
        base->flow.stats.dffs > 0
            ? static_cast<double>(t1c->flow.stats.dffs) /
                  static_cast<double>(base->flow.stats.dffs)
            : 1.0;
    std::snprintf(line, sizeof(line),
                  "\nT1 vs %s: JJ ratio %.3f, DFF ratio %.3f\n",
                  base->key.c_str(), jj_ratio, dff_ratio);
    os << line;
  }

  if (with_paper) {
    if (const gen::PaperRow* row = gen::paper_row(report.design)) {
      os << "\npublished Table I row (1phi / 4phi / T1):\n";
      std::snprintf(line, sizeof(line),
                    "  DFFs  %8ld %8ld %8ld\n  JJs   %8ld %8ld %8ld\n"
                    "  depth %8d %8d %8d\n  T1 found/used: %d/%d\n",
                    row->dff_1p, row->dff_4p, row->dff_t1, row->area_1p,
                    row->area_4p, row->area_t1, row->depth_1p, row->depth_4p,
                    row->depth_t1, row->t1_found, row->t1_used);
      os << line;
    } else {
      os << "\n(no published Table I row for this design)\n";
    }
  }
  return os.str();
}

}  // namespace t1map::cli
