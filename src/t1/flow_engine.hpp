/// \file flow_engine.hpp
/// \brief The Table-I flow as a fixed pipeline of passes.
///
/// `FlowEngine` is the one way to run the flow: it owns reusable scratch
/// state (cut-enumeration arenas, the SAT solver, simulation buffers) and
/// executes a `Pipeline` of `Pass` objects over a shared `FlowContext`,
/// timing each pass.  The pipeline has the paper's fixed order (map, t1,
/// stage, dff, then the checks); `Pipeline::default_flow` builds it.  A
/// fresh engine per call gives a cold one-shot run.
///
/// Design points:
///   * Passes are stateless and const; all evolving data lives in the
///     `FlowContext` and all reusable allocations in the `FlowScratch`, so
///     one `Pipeline` can drive many worker threads concurrently.
///   * The verification stages (timing validation, random-simulation
///     equivalence, SAT CEC) are ordinary pipeline passes: `default_flow`
///     appends CEC on request or drops all three, and they report failures
///     as structured `Diagnostic` records plus a `FlowStatus` the caller
///     inspects — not bare throws.  Contract violations on API misuse
///     (e.g. a pipeline that inserts DFFs before mapping) still throw
///     `ContractError` from the pass's own input checks.
///   * `FlowEngine::run_many` executes the pipeline over a batch of AIGs on
///     a thread pool with per-thread scratch; results are index-aligned and
///     bit-for-bit independent of the thread count.
///   * The engine caches nothing across calls.  Result caching keyed on the
///     source AIG lives in the serve layer (serve/tiered_cache.hpp), which
///     calls `run_many` on its misses only.
///
/// Minimal embedding:
/// \code
///   t1map::t1::FlowEngine engine;                 // default Table-I flow
///   t1map::t1::FlowParams params;                 // 4 phases, T1 on
///   const auto result = engine.run(aig, params);
///   if (!result.ok()) { /* inspect result.diagnostics */ }
///   use(result.materialized.netlist, result.stats);
/// \endcode

#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "cut/cut_enum.hpp"
#include "retime/dff_insert.hpp"
#include "sat/cec.hpp"
#include "sfq/netlist_sim.hpp"
#include "t1/flow.hpp"

namespace t1map::t1 {

// --- Structured diagnostics --------------------------------------------------

enum class Severity { kInfo, kWarning, kError };

const char* severity_name(Severity severity);

/// One structured record emitted by a pass.
struct Diagnostic {
  Severity severity = Severity::kInfo;
  std::string pass;     // Pass::name() of the emitter
  std::string message;  // human-readable detail
};

/// Ordered sink of per-pass records; carried by the `FlowContext` and
/// returned in the `EngineResult`.
class Diagnostics {
 public:
  void add(Severity severity, std::string pass, std::string message);
  void info(std::string pass, std::string message);
  void warning(std::string pass, std::string message);
  void error(std::string pass, std::string message);

  const std::vector<Diagnostic>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  bool has_errors() const;
  /// Message of the first error record ("" when none) — what callers that
  /// require a successful run report.
  std::string first_error() const;
  /// Multi-line `severity [pass] message` rendering.
  std::string to_string() const;

 private:
  std::vector<Diagnostic> entries_;
};

/// How a pipeline execution ended.  Anything but kOk has at least one error
/// diagnostic explaining it.
enum class FlowStatus {
  kOk = 0,
  kTimingViolation,  // TimingCheckPass: materialized netlist is illegal
  kNotEquivalent,    // SimEquivPass / SatCecPass: result differs from source
};

const char* flow_status_name(FlowStatus status);

/// Canonical CLI/JSON name of a CEC verdict.
const char* cec_verdict_name(sat::CecResult::Verdict verdict);

// --- Engine state ------------------------------------------------------------

/// Ignored; kept for perfbench.  Every run is cold, so all fields are
/// always 0/false.
struct ReuseCounters {
  std::uint32_t map_cones_total = 0;   // always 0
  std::uint32_t map_cones_reused = 0;  // always 0
  std::uint32_t t1_cones_total = 0;    // always 0
  std::uint32_t t1_cones_reused = 0;   // always 0
  bool t1_exact = false;               // always false
  bool stage_spliced = false;          // always false
};

/// Wall-clock seconds one pass took in one run.
struct PassTime {
  std::string pass;  // Pass::name()
  double seconds = 0.0;
};

/// Reusable per-thread scratch: every allocation-heavy substrate the passes
/// touch.  Reset-and-reuse semantics — holding one `FlowScratch` across
/// thousands of runs stops paying arena growth after the first.
struct FlowScratch {
  CutWorkspace cuts;        // MapPass + T1DetectPass enumeration arenas
  DetectScratch t1_detect;  // T1DetectPass grouping/MFFC flat storage
  sat::Solver solver;       // SatCecPass clause arena
  sfq::SimScratch sim;      // SimEquivPass stimulus buffer

  /// Ignored; kept for perfbench.  A run is serial.
  std::vector<sat::Solver> cec_solvers;
  /// Ignored; kept for perfbench.  Always null: a run is serial.
  WorkerPool* pool() { return nullptr; }
};

/// What `FlowEngine::run` returns: every output of the pipeline, declared
/// once — the passes write these fields through `FlowContext`, which
/// derives from this struct.  On failure (`!ok()`), the fields are filled
/// up to the failing pass, so callers can post-mortem the partial result.
struct EngineResult {
  FlowStatus status = FlowStatus::kOk;
  bool ok() const { return status == FlowStatus::kOk; }

  sfq::Netlist mapped;  // post-mapping (and post-T1-rewrite) network
  /// False when the pipeline had no dff pass (or stopped before it):
  /// `materialized` is then default-constructed, not a mapped design.
  bool has_materialized = false;
  retime::MaterializeResult materialized;
  FlowStats stats;
  /// One entry per pass that ran, in pipeline order (a failed run ends at
  /// the failing pass), and the wall clock of the whole run.
  std::vector<PassTime> pass_times;
  double total_seconds = 0.0;
  Diagnostics diagnostics;
  ReuseCounters reuse;  // Ignored; kept for perfbench.  Always zero.
  std::string cec = "skipped";  // SatCecPass verdict when the pass ran
};

/// The shared state a pipeline evolves: the run's inputs and intermediate
/// products on top of the `EngineResult` outputs.  Passes read what
/// upstream passes produced and write their own products; the `has_*` flags
/// gate the ordering contracts.
struct FlowContext : EngineResult {
  // Inputs, set by the engine before the first pass.
  const Aig* aig = nullptr;
  FlowParams params;
  /// Never null inside a pass: `FlowEngine` points it at the engine's or a
  /// worker's scratch before the first pass runs.
  FlowScratch* scratch = nullptr;

  // Intermediate state the result does not carry.
  bool has_mapped = false;
  retime::StageAssignment assignment;
  bool has_assignment = false;

  /// Records a structured failure: sets `status` and appends an error
  /// diagnostic.  The failing pass returns false to stop the pipeline.
  void fail(FlowStatus failure, std::string pass, std::string message);
};

// --- Passes ------------------------------------------------------------------

/// One pipeline stage.  Implementations are stateless (configuration comes
/// from `ctx.params`), so a single instance may serve concurrent contexts.
/// Each pass checks its own inputs with `T1MAP_REQUIRE` (e.g. `dff` needs a
/// stage assignment), so an ill-ordered pipeline throws `ContractError`.
class Pass {
 public:
  virtual ~Pass() = default;
  /// Stable identifier: keys diagnostics, `PassTime` entries and
  /// `Pipeline::spec()`.
  virtual const char* name() const = 0;
  /// Executes on `ctx`.  Returns false to stop the pipeline after recording
  /// a structured failure via `ctx.fail`; throws only on API misuse.
  virtual bool run(FlowContext& ctx) const = 0;
};

/// Technology mapping (AIG → SFQ cells), including cut enumeration.
class MapPass final : public Pass {
 public:
  const char* name() const override { return "map"; }
  bool run(FlowContext& ctx) const override;
};

/// T1 detection + substitution (no-op when `params.use_t1` is false).
class T1DetectPass final : public Pass {
 public:
  const char* name() const override { return "t1"; }
  bool run(FlowContext& ctx) const override;
};

/// Multiphase stage assignment (§II-B).
class StageAssignPass final : public Pass {
 public:
  const char* name() const override { return "stage"; }
  bool run(FlowContext& ctx) const override;
};

/// DFF materialization (§II-C) + Table-I statistics.
class DffInsertPass final : public Pass {
 public:
  const char* name() const override { return "dff"; }
  bool run(FlowContext& ctx) const override;
};

/// Independent timing validation of the materialized netlist.
class TimingCheckPass final : public Pass {
 public:
  const char* name() const override { return "timing"; }
  bool run(FlowContext& ctx) const override;
};

/// Random-simulation equivalence against the source AIG
/// (`params.verify_rounds` rounds; no-op when 0).
class SimEquivPass final : public Pass {
 public:
  const char* name() const override { return "sim"; }
  bool run(FlowContext& ctx) const override;
};

/// SAT CEC of the materialized netlist against the source AIG; records the
/// verdict in `ctx.cec`.
class SatCecPass final : public Pass {
 public:
  const char* name() const override { return "cec"; }
  bool run(FlowContext& ctx) const override;
};

/// Platform-stable 64-bit fingerprint of every `FlowParams` field that
/// influences the mapped result or its recorded verdicts.  Two parameter
/// sets with equal fingerprints are interchangeable for caching (the serve
/// layer's cache key folds it in).
std::uint64_t params_fingerprint(const FlowParams& params);

/// Shared worker-pool core: invokes `fn(index, scratch)` for every index in
/// [0, count) on `workers` threads (1 = inline on the calling thread), one
/// `FlowScratch` per worker, and rethrows the first worker exception on the
/// caller.  `fn` must write only index-distinct state.  `FlowEngine::run_many`
/// and the CLI's parallel configuration runner both sit on this.
void for_each_with_scratch(
    std::size_t count, int workers,
    const std::function<void(std::size_t, FlowScratch&)>& fn);

// --- Pipeline ----------------------------------------------------------------

/// An ordered, owned sequence of passes.  Move-only.  Flows come from
/// `default_flow`; `add` composes others (tests inject failing passes).
class Pipeline {
 public:
  Pipeline() = default;
  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  Pipeline& add(std::unique_ptr<Pass> pass);

  std::size_t size() const { return passes_.size(); }
  bool empty() const { return passes_.empty(); }
  const Pass& operator[](std::size_t i) const { return *passes_[i]; }
  /// Comma-joined pass names (the serve cache key folds this in).
  std::string spec() const;

  /// The Table-I flow a default `FlowEngine` runs:
  /// map,t1,stage,dff,timing,sim.  Pass `with_cec` to append SAT CEC;
  /// `skip_checks` drops every verification pass (timing, sim and cec),
  /// leaving map,t1,stage,dff.  The CLI and the server both pick their
  /// pipeline here.
  static Pipeline default_flow(bool with_cec = false,
                               bool skip_checks = false);

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

// --- Engine ------------------------------------------------------------------

/// Executes a `Pipeline` over AIGs, owning the reusable scratch state.  Not
/// itself thread-safe: use one engine per thread, or `run_many`, which
/// spawns per-thread scratch internally.
class FlowEngine {
 public:
  /// Engine over the default Table-I pipeline (no CEC).
  FlowEngine();
  explicit FlowEngine(Pipeline pipeline);

  const Pipeline& pipeline() const { return pipeline_; }
  void set_pipeline(Pipeline pipeline);

  /// Ignored; kept for perfbench.  Every run is cold.
  void set_incremental(bool /*enabled*/) {}

  /// Ignored; kept for perfbench.  A run is serial, and `run_many` takes
  /// its worker count as an argument.
  void set_threads(int /*threads*/) {}

  /// Runs the pipeline on one AIG, reusing this engine's scratch.
  EngineResult run(const Aig& aig, const FlowParams& params = {});

  /// Deterministic batched execution: maps every AIG with `num_threads`
  /// workers (clamped to [1, aigs.size()]), one `FlowScratch` per worker.
  /// A single worker (or a single AIG) runs on this engine's own scratch.
  /// Results are index-aligned with `aigs` and
  /// identical to sequential execution regardless of the thread count.  The
  /// first exception thrown by a worker (contract violation) is rethrown on
  /// the calling thread.
  std::vector<EngineResult> run_many(std::span<const Aig* const> aigs,
                                     const FlowParams& params,
                                     int num_threads);

  FlowScratch& scratch() { return scratch_; }

 private:
  /// Stateless core shared by `run` and `run_many`: executes `pipeline` on
  /// `aig` with the given scratch (the engine's own, or a worker's).
  static EngineResult run_with(const Pipeline& pipeline, const Aig& aig,
                               const FlowParams& params, FlowScratch& scratch);

  Pipeline pipeline_;
  FlowScratch scratch_;
};

}  // namespace t1map::t1
