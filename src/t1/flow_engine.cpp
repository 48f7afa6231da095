#include "t1/flow_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "common/hash_mix.hpp"
#include "retime/timing_check.hpp"
#include "t1/t1_detect.hpp"
#include "t1/t1_rewrite.hpp"

namespace t1map::t1 {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::uint64_t absorb(std::uint64_t acc, std::uint64_t value) {
  return mix64(acc ^ value);
}

}  // namespace

// --- Diagnostics -------------------------------------------------------------

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

const char* flow_status_name(FlowStatus status) {
  switch (status) {
    case FlowStatus::kOk: return "ok";
    case FlowStatus::kTimingViolation: return "timing_violation";
    case FlowStatus::kNotEquivalent: return "not_equivalent";
  }
  return "?";
}

const char* cec_verdict_name(sat::CecResult::Verdict verdict) {
  switch (verdict) {
    case sat::CecResult::Verdict::kEquivalent: return "equivalent";
    case sat::CecResult::Verdict::kNotEquivalent: return "not_equivalent";
    case sat::CecResult::Verdict::kUnknown: return "unknown";
  }
  return "unknown";
}

void Diagnostics::add(Severity severity, std::string pass,
                      std::string message) {
  entries_.push_back(
      Diagnostic{severity, std::move(pass), std::move(message)});
}

void Diagnostics::info(std::string pass, std::string message) {
  add(Severity::kInfo, std::move(pass), std::move(message));
}

void Diagnostics::warning(std::string pass, std::string message) {
  add(Severity::kWarning, std::move(pass), std::move(message));
}

void Diagnostics::error(std::string pass, std::string message) {
  add(Severity::kError, std::move(pass), std::move(message));
}

bool Diagnostics::has_errors() const {
  for (const Diagnostic& d : entries_) {
    if (d.severity == Severity::kError) return true;
  }
  return false;
}

std::string Diagnostics::first_error() const {
  for (const Diagnostic& d : entries_) {
    if (d.severity == Severity::kError) return d.message;
  }
  return {};
}

std::string Diagnostics::to_string() const {
  std::ostringstream os;
  for (const Diagnostic& d : entries_) {
    os << severity_name(d.severity) << " [" << d.pass << "] " << d.message
       << '\n';
  }
  return os.str();
}

void FlowContext::fail(FlowStatus failure, std::string pass,
                       std::string message) {
  T1MAP_ASSERT(failure != FlowStatus::kOk);
  status = failure;
  diagnostics.error(std::move(pass), std::move(message));
}

// --- Passes ------------------------------------------------------------------

bool MapPass::run(FlowContext& ctx) const {
  T1MAP_REQUIRE(ctx.aig != nullptr, "MapPass: context carries no source AIG");
  T1MAP_REQUIRE(ctx.scratch != nullptr, "MapPass: context carries no scratch");
  sfq::MapStats map_stats;
  ctx.mapped = sfq::map_to_sfq(*ctx.aig, ctx.params.mapper, &map_stats,
                               &ctx.scratch->cuts);
  ctx.mapped.check_well_formed();
  ctx.has_mapped = true;
  return true;
}

bool T1DetectPass::run(FlowContext& ctx) const {
  T1MAP_REQUIRE(ctx.has_mapped, "T1DetectPass: no mapped netlist (run map "
                                "before t1)");
  if (!ctx.params.use_t1) return true;  // disabled by configuration
  T1MAP_REQUIRE(ctx.params.num_phases >= 3,
                "the T1 flow needs at least 3 phases (input separation)");
  T1MAP_REQUIRE(ctx.scratch != nullptr,
                "T1DetectPass: context carries no scratch");
  const DetectResult det =
      detect_t1(ctx.mapped, ctx.params.detect, &ctx.scratch->cuts,
                &ctx.scratch->t1_detect);
  ctx.stats.t1_found = det.found;
  ctx.stats.t1_used = det.used;
  if (!det.accepted.empty()) {
    RewriteStats rw;
    ctx.mapped = apply_t1_rewrite(ctx.mapped, det.accepted, &rw);
  }
  return true;
}

bool StageAssignPass::run(FlowContext& ctx) const {
  T1MAP_REQUIRE(ctx.has_mapped, "StageAssignPass: no mapped netlist (run map "
                                "before stage)");
  const retime::StageParams stage_params{
      ctx.params.num_phases, ctx.params.optimize_stages,
      ctx.params.stage_sweeps};
  ctx.assignment = retime::assign_stages(ctx.mapped, stage_params);
  ctx.has_assignment = true;
  return true;
}

bool DffInsertPass::run(FlowContext& ctx) const {
  T1MAP_REQUIRE(ctx.has_assignment, "DffInsertPass: no stage assignment (run "
                                    "stage before dff)");
  ctx.materialized = retime::insert_dffs(ctx.mapped, ctx.assignment);
  ctx.has_materialized = true;

  // Table-I statistics of the materialized result.
  const sfq::Netlist& mat = ctx.materialized.netlist;
  FlowStats& s = ctx.stats;
  s.dffs = mat.count_kind(sfq::CellKind::kDff);
  s.area_jj = mat.cell_area_jj_total();
  s.depth_cycles = ctx.materialized.stages.depth_cycles();
  s.num_stages = ctx.materialized.stages.sigma_po;
  s.t1_cores = mat.num_t1();
  s.splitters = mat.splitter_count();
  s.logic_cells = 0;
  for (std::uint32_t v = 0; v < mat.num_nodes(); ++v) {
    if (sfq::cell_is_logic(mat.kind(v))) ++s.logic_cells;
  }
  return true;
}

bool TimingCheckPass::run(FlowContext& ctx) const {
  T1MAP_REQUIRE(ctx.has_materialized, "TimingCheckPass: no materialized "
                                      "netlist (run dff before timing)");
  const retime::TimingReport timing = retime::check_timing(
      ctx.materialized.netlist, ctx.materialized.stages);
  if (!timing.ok) {
    ctx.fail(FlowStatus::kTimingViolation, name(),
             "flow produced a timing-illegal netlist: " +
                 (timing.violations.empty() ? std::string("?")
                                            : timing.violations.front()));
    return false;
  }
  return true;
}

bool SimEquivPass::run(FlowContext& ctx) const {
  T1MAP_REQUIRE(ctx.has_materialized, "SimEquivPass: no materialized netlist "
                                      "(run dff before sim)");
  T1MAP_REQUIRE(ctx.aig != nullptr, "SimEquivPass: context carries no source "
                                    "AIG");
  if (ctx.params.verify_rounds <= 0) return true;
  T1MAP_REQUIRE(ctx.scratch != nullptr,
                "SimEquivPass: context carries no scratch");
  const std::optional<sfq::Mismatch> mismatch = sfq::find_sim_mismatch(
      *ctx.aig, ctx.materialized.netlist, ctx.params.verify_rounds,
      /*seed=*/1, &ctx.scratch->sim);
  if (mismatch.has_value()) {
    ctx.fail(FlowStatus::kNotEquivalent, name(),
             "flow result is not functionally equivalent to the source AIG "
             "(first mismatch on PO " +
                 std::to_string(mismatch->po_index) + ")");
    return false;
  }
  return true;
}

bool SatCecPass::run(FlowContext& ctx) const {
  T1MAP_REQUIRE(ctx.has_materialized, "SatCecPass: no materialized netlist "
                                      "(run dff before cec)");
  T1MAP_REQUIRE(ctx.aig != nullptr, "SatCecPass: context carries no source "
                                    "AIG");
  T1MAP_REQUIRE(ctx.scratch != nullptr,
                "SatCecPass: context carries no scratch");
  const sat::CecResult result = sat::check_equivalence(
      *ctx.aig, ctx.materialized.netlist, ctx.params.cec_conflict_limit,
      ctx.scratch->solver);
  ctx.cec = cec_verdict_name(result.verdict);
  if (result.verdict == sat::CecResult::Verdict::kNotEquivalent) {
    ctx.fail(FlowStatus::kNotEquivalent, name(),
             "SAT CEC refuted equivalence: mapped netlist differs from the "
             "source AIG");
    return false;
  }
  if (result.verdict == sat::CecResult::Verdict::kUnknown) {
    ctx.diagnostics.warning(
        name(), "CEC inconclusive within the conflict limit (" +
                    std::to_string(result.conflicts) + " conflicts)");
  }
  return true;
}

// --- Pipeline ----------------------------------------------------------------

Pipeline& Pipeline::add(std::unique_ptr<Pass> pass) {
  T1MAP_REQUIRE(pass != nullptr, "Pipeline::add: null pass");
  passes_.push_back(std::move(pass));
  return *this;
}

std::string Pipeline::spec() const {
  std::string out;
  for (const auto& pass : passes_) {
    if (!out.empty()) out += ',';
    out += pass->name();
  }
  return out;
}

Pipeline Pipeline::default_flow(bool with_cec, bool skip_checks) {
  Pipeline p;
  p.add(std::make_unique<MapPass>())
      .add(std::make_unique<T1DetectPass>())
      .add(std::make_unique<StageAssignPass>())
      .add(std::make_unique<DffInsertPass>());
  if (skip_checks) return p;
  p.add(std::make_unique<TimingCheckPass>())
      .add(std::make_unique<SimEquivPass>());
  if (with_cec) p.add(std::make_unique<SatCecPass>());
  return p;
}

// --- Params fingerprint ------------------------------------------------------

std::uint64_t params_fingerprint(const FlowParams& params) {
  // Every field that can change the mapped netlist, the reported
  // statistics, or a recorded check verdict takes part; adding a FlowParams
  // field without extending this list is the classic stale-cache bug, so
  // keep the two in lockstep.
  std::uint64_t h = 0xC4F1A9B2D6E85301ull;  // domain seed
  h = absorb(h, static_cast<std::uint64_t>(params.num_phases));
  h = absorb(h, params.use_t1 ? 1 : 0);
  h = absorb(h, params.optimize_stages ? 1 : 0);
  h = absorb(h, static_cast<std::uint64_t>(params.stage_sweeps));
  h = absorb(h, static_cast<std::uint64_t>(params.detect.cuts.k));
  h = absorb(h, static_cast<std::uint64_t>(params.detect.cuts.max_cuts));
  h = absorb(h, params.detect.allow_input_negation ? 1 : 0);
  h = absorb(h, static_cast<std::uint64_t>(params.detect.min_gain));
  h = absorb(h, static_cast<std::uint64_t>(params.mapper.cuts.k));
  h = absorb(h, static_cast<std::uint64_t>(params.mapper.cuts.max_cuts));
  h = absorb(h, static_cast<std::uint64_t>(params.verify_rounds));
  h = absorb(h, static_cast<std::uint64_t>(params.cec_conflict_limit));
  // Deliberately excluded: `sat_portfolio`, which nothing reads.
  return h;
}

// --- Engine ------------------------------------------------------------------

FlowEngine::FlowEngine() : FlowEngine(Pipeline::default_flow()) {}

FlowEngine::FlowEngine(Pipeline pipeline) : pipeline_(std::move(pipeline)) {}

void FlowEngine::set_pipeline(Pipeline pipeline) {
  pipeline_ = std::move(pipeline);
}

EngineResult FlowEngine::run_with(const Pipeline& pipeline, const Aig& aig,
                                  const FlowParams& params,
                                  FlowScratch& scratch) {
  T1MAP_REQUIRE(params.num_phases >= 1, "need at least one phase");
  T1MAP_REQUIRE(!params.use_t1 || params.num_phases >= 3,
                "the T1 flow needs at least 3 phases (input separation)");
  T1MAP_REQUIRE(!pipeline.empty(), "FlowEngine: empty pipeline");

  FlowContext ctx;
  ctx.aig = &aig;
  ctx.params = params;
  ctx.scratch = &scratch;

  ctx.pass_times.reserve(pipeline.size());
  const Clock::time_point flow_start = Clock::now();
  for (std::size_t i = 0; i < pipeline.size(); ++i) {
    const Pass& pass = pipeline[i];
    const Clock::time_point t0 = Clock::now();
    const bool keep_going = pass.run(ctx);
    ctx.pass_times.push_back({pass.name(), seconds_between(t0, Clock::now())});
    if (!keep_going) {
      T1MAP_ASSERT(ctx.status != FlowStatus::kOk);
      break;
    }
  }
  ctx.total_seconds = seconds_between(flow_start, Clock::now());
  // Moves the outputs out; the inputs and intermediate state stay behind.
  return std::move(static_cast<EngineResult&>(ctx));
}

EngineResult FlowEngine::run(const Aig& aig, const FlowParams& params) {
  return run_with(pipeline_, aig, params, scratch_);
}

void for_each_with_scratch(
    std::size_t count, int workers,
    const std::function<void(std::size_t, FlowScratch&)>& fn) {
  if (count == 0) return;
  workers = std::clamp(workers, 1, static_cast<int>(count));
  if (workers == 1) {
    FlowScratch scratch;
    for (std::size_t i = 0; i < count; ++i) fn(i, scratch);
    return;
  }

  // Work-stealing over a shared index; each worker owns its scratch, so a
  // callback writing only index-distinct state is race-free and its output
  // independent of the interleaving.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto worker = [&]() {
    FlowScratch scratch;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i, scratch);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<EngineResult> FlowEngine::run_many(
    std::span<const Aig* const> aigs, const FlowParams& params,
    int num_threads) {
  for (const Aig* aig : aigs) {
    T1MAP_REQUIRE(aig != nullptr, "run_many: null AIG in batch");
  }
  std::vector<EngineResult> results(aigs.size());
  if (num_threads <= 1 || aigs.size() == 1) {
    // Sequential runs stay on the engine's own scratch so capacity keeps
    // accumulating across run()/run_many() calls.
    for (std::size_t i = 0; i < aigs.size(); ++i) {
      results[i] = run_with(pipeline_, *aigs[i], params, scratch_);
    }
    return results;
  }
  for_each_with_scratch(aigs.size(), num_threads,
                        [&](std::size_t i, FlowScratch& scratch) {
                          results[i] =
                              run_with(pipeline_, *aigs[i], params, scratch);
                        });
  return results;
}

}  // namespace t1map::t1
