/// \file flow_engine.hpp
/// \brief Composable pass-pipeline API over the Table-I flow.
///
/// `FlowEngine` is the one way to run the flow: it owns reusable scratch
/// state (cut-enumeration arenas, the SAT solver, simulation buffers) and
/// executes an explicit `Pipeline` of `Pass` objects over a shared
/// `FlowContext`.  A fresh engine per call gives a cold one-shot run.
///
/// Design points:
///   * Passes are stateless and const; all evolving data lives in the
///     `FlowContext` and all reusable allocations in the `FlowScratch`, so
///     one `Pipeline` can drive many worker threads concurrently.
///   * The verification stages (timing validation, random-simulation
///     equivalence, SAT CEC) are ordinary pipeline passes: individually
///     toggleable, and reporting failures as structured `Diagnostic`
///     records plus a `FlowStatus` the caller inspects — not bare throws.
///     Contract violations on API misuse (e.g. a pipeline that inserts DFFs
///     before mapping) still throw `ContractError`.
///   * `FlowEngine::run_many` executes the pipeline over a batch of AIGs on
///     a thread pool with per-thread scratch; results are index-aligned and
///     bit-for-bit independent of the thread count.
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
#include <string_view>
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

/// Cone reuse counters of one run.  Only the mapper splices (see
/// `sfq::MapMemo`): `map_cones_reused` is 0 on a cold run or when the
/// scratch carries no memo, and the counters never affect the mapped
/// result — splices are bit-identical by construction.  The `t1_*` and
/// `stage_spliced` fields are always 0/false: T1 detection and stage
/// assignment always run cold.  They stay only so existing readers of the
/// struct keep compiling.
struct ReuseCounters {
  std::uint32_t map_cones_total = 0;   // AND cones seen by the mapper
  std::uint32_t map_cones_reused = 0;  // … spliced from the memo
  std::uint32_t t1_cones_total = 0;    // always 0
  std::uint32_t t1_cones_reused = 0;   // always 0
  bool t1_exact = false;               // always false
  bool stage_spliced = false;          // always false
};

/// Reusable per-thread scratch: every allocation-heavy substrate the passes
/// touch.  Reset-and-reuse semantics — holding one `FlowScratch` across
/// thousands of runs stops paying arena growth after the first.
struct FlowScratch {
  CutWorkspace cuts;        // MapPass + T1DetectPass enumeration arenas
  DetectScratch t1_detect;  // T1DetectPass grouping/MFFC flat storage
  sat::Solver solver;       // SatCecPass clause arena
  sfq::SimScratch sim;      // SimEquivPass stimulus buffer

  /// The mapper's cone memo (sfq/mapper.hpp), or null for always-cold
  /// runs.  Unlike the fields above this is a non-owning hook: `FlowEngine`
  /// points it at its own `MapMemo` (see `set_incremental`), and the
  /// per-worker scratches of `for_each_with_scratch` leave it null — the
  /// memo is single-threaded state.
  sfq::MapMemo* memo = nullptr;

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
  StageTimes times;
  Diagnostics diagnostics;
  /// Incremental-mapping reuse counters.  The totals are populated on
  /// every executed run (cold runs report N total / 0 reused, so hit rates
  /// accumulated over mixed runs stay meaningful); results decoded from a
  /// serve cache carry all zeros — the codec does not persist them.
  ReuseCounters reuse;
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
  FlowScratch* scratch = nullptr;  // may be null: passes fall back to locals

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
class Pass {
 public:
  virtual ~Pass() = default;
  /// Stable identifier: used by `Pipeline::parse`, diagnostics and docs.
  virtual const char* name() const = 0;
  /// Executes on `ctx`.  Returns false to stop the pipeline after recording
  /// a structured failure via `ctx.fail`; throws only on API misuse.
  virtual bool run(FlowContext& ctx) const = 0;
  /// The `StageTimes` bucket this pass accumulates into.
  virtual double StageTimes::* time_slot() const {
    return &StageTimes::self_check;
  }
  /// Name of the pass that must appear earlier in a pipeline for this one
  /// to find its inputs (nullptr = none).  `Pipeline::parse` rejects specs
  /// that violate it; the run-time `T1MAP_REQUIRE`s in `run` stay the
  /// authority for programmatically composed pipelines.
  virtual const char* requires_pass() const { return nullptr; }
};

/// Technology mapping (AIG → SFQ cells), including cut enumeration.
class MapPass final : public Pass {
 public:
  const char* name() const override { return "map"; }
  bool run(FlowContext& ctx) const override;
  double StageTimes::* time_slot() const override { return &StageTimes::map; }
};

/// T1 detection + substitution (no-op when `params.use_t1` is false).
class T1DetectPass final : public Pass {
 public:
  const char* name() const override { return "t1"; }
  bool run(FlowContext& ctx) const override;
  double StageTimes::* time_slot() const override {
    return &StageTimes::t1_detect;
  }
  const char* requires_pass() const override { return "map"; }
};

/// Multiphase stage assignment (§II-B).
class StageAssignPass final : public Pass {
 public:
  const char* name() const override { return "stage"; }
  bool run(FlowContext& ctx) const override;
  double StageTimes::* time_slot() const override {
    return &StageTimes::stage_assign;
  }
  const char* requires_pass() const override { return "map"; }
};

/// DFF materialization (§II-C) + Table-I statistics.
class DffInsertPass final : public Pass {
 public:
  const char* name() const override { return "dff"; }
  bool run(FlowContext& ctx) const override;
  double StageTimes::* time_slot() const override {
    return &StageTimes::dff_insert;
  }
  const char* requires_pass() const override { return "stage"; }
};

/// Independent timing validation of the materialized netlist.
class TimingCheckPass final : public Pass {
 public:
  const char* name() const override { return "timing"; }
  bool run(FlowContext& ctx) const override;
  const char* requires_pass() const override { return "dff"; }
};

/// Random-simulation equivalence against the source AIG
/// (`params.verify_rounds` rounds; no-op when 0).
class SimEquivPass final : public Pass {
 public:
  const char* name() const override { return "sim"; }
  bool run(FlowContext& ctx) const override;
  const char* requires_pass() const override { return "dff"; }
};

/// SAT CEC of the materialized netlist against the source AIG; records the
/// verdict in `ctx.cec`.
class SatCecPass final : public Pass {
 public:
  const char* name() const override { return "cec"; }
  bool run(FlowContext& ctx) const override;
  double StageTimes::* time_slot() const override { return &StageTimes::cec; }
  const char* requires_pass() const override { return "dff"; }
};

/// Factory over the pass registry; nullptr for unknown names.
std::unique_ptr<Pass> make_pass(const std::string& name);

// --- Result-caching hook -----------------------------------------------------

/// Opaque 128-bit key identifying one (source AIG, configuration) mapping
/// problem.  Producers combine a canonical structural hash of the AIG
/// (serve::AigHasher) with `params_fingerprint` and the pipeline spec; the
/// engine never interprets the bits.
struct RunKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend bool operator==(const RunKey&, const RunKey&) = default;
};

/// Point-in-time counter snapshot of a `RunCache` implementation.  Every
/// concrete cache (in-memory, disk, tiered composition) reports through
/// this one struct, so callers — the serve `stats` command, the CLI
/// summary line — never reach for implementation-specific counters.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;  // incl. capacity-rejected admissions
  std::uint64_t entries = 0;    // resident entries
  std::uint64_t bytes = 0;      // resident (or on-log) bytes

  CacheStats& operator+=(const CacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    insertions += other.insertions;
    evictions += other.evictions;
    entries += other.entries;
    bytes += other.bytes;
    return *this;
  }
};

/// Cache interface the cached `run_many` overload consults before
/// dispatching work.  Implementations must be safe for concurrent callers
/// (serve::FlowCache / serve::TieredCache are the production ones): several
/// engines dispatching against one shared cache — e.g. one per serve
/// connection — may call `lookup` and `store` simultaneously.
class RunCache {
 public:
  virtual ~RunCache() = default;
  /// Fills `out` and returns true when `key` is present.
  virtual bool lookup(const RunKey& key, EngineResult& out) = 0;
  /// Offers a freshly computed successful result for retention.
  virtual void store(const RunKey& key, const EngineResult& result) = 0;
  /// Counter snapshot; the default (an empty snapshot) keeps trivial test
  /// fakes trivial.
  virtual CacheStats stats() const { return {}; }
};

/// Platform-stable 64-bit fingerprint of every `FlowParams` field that
/// influences the mapped result or its recorded verdicts.  Two parameter
/// sets with equal fingerprints are interchangeable for caching.
std::uint64_t params_fingerprint(const FlowParams& params);

/// Platform-stable 64-bit FNV-1a, used to fold strings (e.g. a pipeline
/// spec) into cache keys.
std::uint64_t fingerprint_string(std::string_view text);

/// Shared worker-pool core: invokes `fn(index, scratch)` for every index in
/// [0, count) on `workers` threads (1 = inline on the calling thread), one
/// `FlowScratch` per worker, and rethrows the first worker exception on the
/// caller.  `fn` must write only index-distinct state.  `FlowEngine::run_many`
/// and the CLI's parallel configuration runner both sit on this.
void for_each_with_scratch(
    std::size_t count, int workers,
    const std::function<void(std::size_t, FlowScratch&)>& fn);

// --- Pipeline ----------------------------------------------------------------

/// An ordered, owned sequence of passes.  Move-only.
class Pipeline {
 public:
  Pipeline() = default;
  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  Pipeline& add(std::unique_ptr<Pass> pass);

  std::size_t size() const { return passes_.size(); }
  bool empty() const { return passes_.empty(); }
  const Pass& operator[](std::size_t i) const { return *passes_[i]; }
  /// Comma-joined pass names, `parse`-compatible.
  std::string spec() const;

  /// The Table-I flow a default `FlowEngine` runs:
  /// map,t1,stage,dff,timing,sim.  Pass `with_cec` to append SAT CEC.
  static Pipeline default_flow(bool with_cec = false);
  /// Builds from a comma-separated name list (e.g. "map,t1,stage,dff").
  /// Throws ContractError on unknown or empty names.
  static Pipeline parse(const std::string& spec);
  /// Every name `parse`/`make_pass` accepts, in canonical flow order.
  static const std::vector<std::string>& known_passes();

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

  /// Cone-level incremental mapping across this engine's runs (default on):
  /// consecutive `run`s splice the mapper's per-cone cut sets and choices
  /// from the previous run where structural digests match, which makes
  /// re-mapping after a small edit cheap.  The later passes always run
  /// cold.  Results are always bit-identical to cold runs;
  /// `EngineResult::reuse` reports how much was spliced.  Turning it off
  /// drops the retained store.
  void set_incremental(bool enabled);
  bool incremental() const { return scratch_.memo != nullptr; }

  /// Ignored; kept for perfbench.  A run is serial, and `run_many` takes
  /// its worker count as an argument.
  void set_threads(int /*threads*/) {}

  /// Runs the pipeline on one AIG, reusing this engine's scratch.
  EngineResult run(const Aig& aig, const FlowParams& params = {});

  /// Deterministic batched execution: maps every AIG with `num_threads`
  /// workers (clamped to [1, aigs.size()]), one `FlowScratch` per worker.
  /// Results are index-aligned with `aigs` and identical to sequential
  /// execution regardless of the thread count.  The first exception thrown
  /// by a worker (contract violation) is rethrown on the calling thread.
  std::vector<EngineResult> run_many(std::span<const Aig* const> aigs,
                                     const FlowParams& params,
                                     int num_threads);

  /// Cache-aware batched execution: consults `cache` (keyed by the caller-
  /// supplied `keys`, index-aligned with `aigs`) before dispatching.  Hits
  /// are filled without touching the flow; duplicate keys within the batch
  /// compute once; fresh ok-results are offered back via `store`.  When
  /// `cached` is non-null it receives one flag per index (1 = served from
  /// the cache or deduplicated against an earlier batch entry).  Results
  /// are bit-for-bit identical to the uncached overload.
  std::vector<EngineResult> run_many(
      std::span<const Aig* const> aigs, const FlowParams& params,
      int num_threads, RunCache* cache, std::span<const RunKey> keys,
      std::vector<std::uint8_t>* cached = nullptr);

  FlowScratch& scratch() { return scratch_; }

 private:
  /// Stateless core shared by `run` and `run_many`: executes `pipeline` on
  /// `aig` with the given scratch (the engine's own, or a worker's).
  static EngineResult run_with(const Pipeline& pipeline, const Aig& aig,
                               const FlowParams& params, FlowScratch& scratch);

  /// The dispatch both `run_many` overloads share: runs the pipeline on
  /// `aigs[i]` for every `i` in `indices` into `results[i]`, with up to
  /// `num_threads` workers, one index at a time each.  A single worker runs
  /// on this engine's scratch.
  void run_indices(std::span<const Aig* const> aigs,
                   std::span<const std::size_t> indices,
                   const FlowParams& params, int num_threads,
                   std::vector<EngineResult>& results);

  Pipeline pipeline_;
  FlowScratch scratch_;
  std::unique_ptr<sfq::MapMemo> memo_;  // scratch_.memo points here when on
};

}  // namespace t1map::t1
