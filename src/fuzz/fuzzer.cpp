#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <utility>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "io/aiger.hpp"
#include "io/blif.hpp"
#include "sat/cec.hpp"
#include "serve/aig_hash.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::fuzz {

namespace {

struct Config {
  std::string key;
  t1::FlowParams params;
};

std::vector<Config> make_configs(const FuzzOptions& options) {
  t1::FlowParams base;
  base.verify_rounds = options.verify_rounds;
  Config phi1{"baseline_1phi", base};
  phi1.params.num_phases = 1;
  phi1.params.use_t1 = false;
  Config phin{"baseline_" + std::to_string(options.phases) + "phi", base};
  phin.params.num_phases = options.phases;
  phin.params.use_t1 = false;
  Config t1c{"t1", base};
  t1c.params.num_phases = options.phases;
  t1c.params.use_t1 = true;
  return {phi1, phin, t1c};
}

/// First failed check ("" = all pass).
struct Outcome {
  std::string check;
  std::string detail;
  bool failed() const { return !check.empty(); }
};

Lit xlate(Lit l, const std::vector<Lit>& map) {
  T1MAP_ASSERT(map[lit_node(l)] != Aig::kUnmapped);
  return lit_notif(map[lit_node(l)], lit_is_complemented(l));
}

/// Copies `aig` with `new_pos` as the PO list (literals in `aig`'s space),
/// dropping cones no surviving PO observes.  PIs are all preserved.
Aig rebuild_with_pos(const Aig& aig,
                     const std::vector<std::pair<Lit, std::string>>& new_pos) {
  Aig out;
  std::vector<Lit> map(aig.num_nodes(), Aig::kUnmapped);
  map[0] = Aig::kConst0;
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    map[aig.pis()[i]] = out.create_pi(aig.pi_name(i));
  }
  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    if (!aig.is_and(n)) continue;
    map[n] = out.create_and(xlate(aig.fanin0(n), map),
                            xlate(aig.fanin1(n), map));
  }
  for (const auto& [lit, name] : new_pos) {
    out.create_po(xlate(lit, map), name);
  }
  return out.cleaned();
}

/// The per-config differential check: flow, fault hook, CEC oracle.  A
/// `ContractError` thrown anywhere inside is a failure like any other, so
/// it is minimized and dumped instead of ending the run.
class ConfigChecker {
 public:
  explicit ConfigChecker(const FuzzOptions& options)
      : options_(options), engine_(t1::Pipeline::default_flow(false)) {}

  long flows_run() const { return flows_run_; }

  Outcome run(const Aig& aig, const Config& config) {
    return guarded([&] { return check_flow(aig, config); });
  }

 private:
  template <typename Check>
  static Outcome guarded(Check&& check) {
    try {
      return check();
    } catch (const ContractError& e) {
      return {"contract", e.what()};
    }
  }

  Outcome check_flow(const Aig& aig, const Config& config) {
    ++flows_run_;
    const t1::EngineResult result = engine_.run(aig, config.params);
    if (!result.ok()) {
      return {"flow", result.diagnostics.first_error()};
    }
    T1MAP_ASSERT(result.has_materialized);

    sfq::Netlist netlist = result.materialized.netlist;
    if (options_.corrupt) options_.corrupt(netlist);
    const sat::CecResult cec = sat::check_equivalence(aig, netlist);
    if (cec.verdict != sat::CecResult::Verdict::kEquivalent) {
      return {"cec",
              cec.verdict == sat::CecResult::Verdict::kUnknown
                  ? "oracle verdict unknown"
                  : "netlist differs from source AIG at output " +
                        std::to_string(cec.failing_output)};
    }
    return {};
  }

  const FuzzOptions& options_;
  t1::FlowEngine engine_;
  long flows_run_ = 0;
};

Outcome run_roundtrip_checks(const Aig& aig) {
  const serve::Digest digest = serve::hash_aig(aig);
  for (const auto format : {io::AigerFormat::kAscii, io::AigerFormat::kBinary}) {
    const char* check =
        format == io::AigerFormat::kAscii ? "aiger_ascii" : "aiger_binary";
    std::ostringstream first;
    io::write_aiger(first, aig, format);
    Aig back;
    try {
      back = io::read_aiger_string(first.str());
    } catch (const ContractError& e) {
      return {check, std::string("re-read failed: ") + e.what()};
    }
    std::ostringstream second;
    io::write_aiger(second, back, format);
    if (first.str() != second.str()) {
      return {check, "write/read/write not byte-identical"};
    }
    if (serve::hash_aig(back) != digest) {
      return {check, "round trip changed the structural digest"};
    }
  }
  {
    std::ostringstream blif;
    io::write_blif(blif, aig);
    Aig back;
    try {
      back = io::read_blif_string(blif.str());
    } catch (const ContractError& e) {
      return {"blif", std::string("re-read failed: ") + e.what()};
    }
    if (serve::hash_aig(back) != digest) {
      return {"blif", "round trip changed the structural digest"};
    }
  }
  return {};
}

/// Oracle for minimization: does `aig` still fail with the *same* check?
using FailsSameCheck = std::function<bool(const Aig&)>;

/// Greedy minimization: drop POs one at a time, then walk each surviving
/// PO's cone toward the PIs, keeping every candidate that still fails.
/// `budget` caps oracle evaluations (each one may run full flows).
Aig minimize(Aig failing, const FailsSameCheck& still_fails, int budget) {
  const auto pos_of = [](const Aig& a) {
    std::vector<std::pair<Lit, std::string>> pos;
    for (std::uint32_t i = 0; i < a.num_pos(); ++i) {
      pos.emplace_back(a.po(i), a.po_name(i));
    }
    return pos;
  };

  // Phase 1: PO removal.
  bool improved = true;
  while (improved && failing.num_pos() > 1 && budget > 0) {
    improved = false;
    const auto pos = pos_of(failing);
    for (std::size_t k = 0; k < pos.size() && budget > 0; ++k) {
      auto kept = pos;
      kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(k));
      Aig candidate = rebuild_with_pos(failing, kept);
      --budget;
      if (still_fails(candidate)) {
        failing = std::move(candidate);
        improved = true;
        break;
      }
    }
  }

  // Phase 2: cone trimming — replace a PO by one of its driver's fanins.
  improved = true;
  while (improved && budget > 0) {
    improved = false;
    const auto pos = pos_of(failing);
    for (std::size_t k = 0; k < pos.size() && !improved; ++k) {
      const Lit po = pos[k].first;
      if (!failing.is_and(lit_node(po))) continue;
      for (const Lit fanin : {failing.fanin0(lit_node(po)),
                              failing.fanin1(lit_node(po))}) {
        if (budget <= 0) break;
        auto replaced = pos;
        replaced[k].first = lit_notif(fanin, lit_is_complemented(po));
        Aig candidate = rebuild_with_pos(failing, replaced);
        --budget;
        if (still_fails(candidate)) {
          failing = std::move(candidate);
          improved = true;
          break;
        }
      }
    }
  }
  return failing;
}

std::string dump_repro(const FuzzOptions& options, const FuzzFailure& failure) {
  try {
    std::filesystem::create_directories(options.repro_dir);
    const std::string path = options.repro_dir + "/iter" +
                             std::to_string(failure.iteration) + "_" +
                             failure.config + "_" + failure.check + ".aag";
    io::write_aiger_file(path, failure.minimized);
    return path;
  } catch (const std::exception&) {
    return "";  // a full repro is still in the report's `minimized` field
  }
}

}  // namespace

RandomAigOptions iteration_aig_options(const RandomAigOptions& base,
                                       std::uint64_t seed, int iteration) {
  // Derive a per-iteration generator spec: fresh seed, sizes spread across
  // (not just at) the configured bounds so one run covers many shapes.
  Rng rng(seed ^ (0x9E3779B97F4A7C15ull * (iteration + 1)));
  RandomAigOptions aig = base;
  aig.seed = rng.next();
  aig.num_pis = 2 + static_cast<std::uint32_t>(
                        rng.below(std::max<std::uint32_t>(1, base.num_pis)));
  aig.num_pos = 1 + static_cast<std::uint32_t>(
                        rng.below(std::max<std::uint32_t>(1, base.num_pos)));
  aig.num_ops = 5 + static_cast<std::uint32_t>(
                        rng.below(std::max<std::uint32_t>(1, base.num_ops)));
  aig.depth_bias = rng.uniform();
  return aig;
}

FuzzReport run_fuzz(const FuzzOptions& options) {
  T1MAP_REQUIRE(options.iterations >= 1, "--fuzz needs at least 1 iteration");
  T1MAP_REQUIRE(options.phases >= 3,
                "fuzz: the T1 configuration needs >= 3 phases");
  const auto start = std::chrono::steady_clock::now();

  FuzzReport report;
  const std::vector<Config> configs = make_configs(options);
  ConfigChecker checker(options);

  for (int iter = 0; iter < options.iterations; ++iter) {
    const RandomAigOptions aig_options =
        iteration_aig_options(options.aig, options.seed, iter);
    const Aig aig = random_aig(aig_options);

    // Format round trips (flow-independent).
    if (Outcome outcome = run_roundtrip_checks(aig); outcome.failed()) {
      FuzzFailure failure{iter, "roundtrip", outcome.check, outcome.detail,
                          "", {}};
      failure.minimized = minimize(
          aig,
          [&](const Aig& candidate) {
            return run_roundtrip_checks(candidate).check == outcome.check;
          },
          /*budget=*/256);
      failure.repro_path = dump_repro(options, failure);
      if (options.log != nullptr) {
        *options.log << "fuzz: iteration " << iter << " FAILED [roundtrip/"
                     << outcome.check << "] " << outcome.detail << "\n";
      }
      report.failures.push_back(std::move(failure));
      continue;  // flow checks on a non-round-tripping AIG add no signal
    }

    for (const Config& config : configs) {
      Outcome outcome = checker.run(aig, config);
      if (!outcome.failed()) continue;
      FuzzFailure failure{iter, config.key, outcome.check, outcome.detail,
                          "", {}};
      failure.minimized = minimize(
          aig,
          [&](const Aig& candidate) {
            return candidate.num_pos() >= 1 &&
                   checker.run(candidate, config).check == outcome.check;
          },
          /*budget=*/48);
      failure.repro_path = dump_repro(options, failure);
      if (options.log != nullptr) {
        *options.log << "fuzz: iteration " << iter << " FAILED [" << config.key
                     << "/" << outcome.check << "] " << outcome.detail
                     << (failure.repro_path.empty()
                             ? ""
                             : " (repro: " + failure.repro_path + ")")
                     << "\n";
      }
      report.failures.push_back(std::move(failure));
    }

    if (options.log != nullptr && (iter + 1) % 50 == 0) {
      *options.log << "fuzz: " << (iter + 1) << "/" << options.iterations
                   << " iterations, " << report.failures.size()
                   << " failure(s)\n";
    }
  }

  report.iterations = options.iterations;
  report.flows_run = checker.flows_run();
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

}  // namespace t1map::fuzz
