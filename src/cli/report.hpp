/// \file report.hpp
/// \brief Running Table-I configurations and rendering the stats report
/// (text and JSON) for the `t1map` CLI.

#pragma once

#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "cli/options.hpp"
#include "io/json.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::cli {

/// One executed flow configuration.
struct ConfigResult {
  std::string key;  // "baseline_1phi", "baseline_<n>phi" or "t1"
  t1::FlowParams params;
  t1::EngineResult flow;  // `flow.cec` and `flow.times` feed the report
};

/// The full run: input summary plus every executed configuration.
struct Report {
  std::string design;  // benchmark / model name
  std::string source;  // "gen:<name>", "aiger:<path>" or "blif:<path>"
  std::uint32_t num_pis = 0;
  std::uint32_t num_pos = 0;
  std::uint32_t num_ands = 0;
  int depth = 0;
  int phases = 4;  // the n of nphi / t1
  std::vector<ConfigResult> configs;
};

/// Expands `--config` into the list of configuration keys to run, in
/// canonical order (1phi, nphi, t1).
std::vector<std::string> selected_configs(const Options& opts);

/// The pass pipeline `opts` selects: `--passes` verbatim, else the default
/// flow minus the verification stages under `--skip-checks`, with SAT CEC
/// appended unless `--no-cec`.
t1::Pipeline build_pipeline(const Options& opts);

/// Flow parameters for one configuration key.
t1::FlowParams config_params(const std::string& key, const Options& opts);

/// Runs every configuration in `keys` on `aig`, each on its own
/// `FlowEngine` over `build_pipeline(opts)` — with `--threads`,
/// configurations run in parallel (results stay in `keys` order).  Throws
/// ContractError if any configuration's check passes fail.
std::vector<ConfigResult> run_configs(const Aig& aig,
                                      const std::vector<std::string>& keys,
                                      const Options& opts);

/// Machine-readable report (the `--json` output).
io::Json report_json(const Report& report);

/// Human-readable report (the default output).  When `with_paper` is set
/// and the design has a published Table-I row, it is appended.
std::string report_text(const Report& report, bool with_paper);

/// Finds a config by key; nullptr when it was not run.
const ConfigResult* find_config(const Report& report, const std::string& key);

}  // namespace t1map::cli
