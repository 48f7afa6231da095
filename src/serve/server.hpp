/// \file server.hpp
/// \brief JSONL batch-serving core over `FlowEngine` + the tiered cache.
///
/// Protocol (one JSON object per line in, one per line out, responses in
/// request order per connection):
///
///   request  := flow-job | command
///   flow-job := {"id": any, "gen": NAME | "blif": TEXT | "aiger": TEXT,
///                "config": "1phi"|"nphi"|"t1", "phases": N,
///                "verify_rounds": N, "cec": BOOL}   (all but the circuit
///                                                    field optional)
///   The "aiger" field carries an inline ASCII (`aag`) AIGER payload;
///   convert binary files with `t1map --input f.aig --export-aiger f.aag`.
///   command  := {"id": any, "cmd": "stats" | "quit"}
///
/// Responses:
///
///   ok   := {"id", "ok": true, "design", "cached", "status": "ok",
///            "cec", "input": {pis,pos,ands}, "stats": {Table-I block},
///            "ms": flow-compute milliseconds (0 on a cache hit)}
///   fail := {"id", "ok": false, "error", ...}         (bad request or a
///                                                      failed check pass)
///
/// Execution model: the server accepts connections from a `Transport` and
/// runs one session thread per connection.  Each session reads requests in
/// batches (up to `ServeConfig::batch_size` lines), keys them
/// (`cache_key`: AIG digest x params x pipeline) and groups them by
/// configuration.  Per group it owns the whole cache path: fold repeats
/// within the batch onto their first miss, look every other job up, run
/// only the misses through `FlowEngine::run_many` on `threads` workers,
/// store the ok-results' `ServedResult`s (Table-I stats + CEC verdict),
/// then serve the repeats from the cache — so each flow job counts exactly
/// one cache hit or miss.  Sessions share one `TieredCache` (in-memory
/// `FlowCache`, optionally backed by a persistent `DiskCache` under
/// `cache_dir`), so any client's cold run is every client's warm hit —
/// across server restarts when the disk tier is on.  A hit returns the
/// cold response's stats and verdict with `ms` 0; every miss runs the flow
/// cold.  Everything except the timing fields is deterministic: a given
/// request script produces byte-identical responses regardless of worker
/// count or transport.
///
/// Shutdown: a `quit` command (or `Transport::shutdown()`, e.g. from a
/// SIGTERM handler) stops the accept loop and asks every session to
/// finish its current batch; sessions still running after
/// `drain_timeout_ms` have their connections aborted.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/aig_hash.hpp"
#include "serve/flow_cache.hpp"
#include "serve/histogram.hpp"
#include "serve/tiered_cache.hpp"
#include "serve/transport.hpp"
#include "t1/flow_engine.hpp"

namespace t1map::serve {

/// Per-request defaults applied when a flow-job omits the field.  Shared
/// by the server and the CLI so "what does an empty request mean" has one
/// definition.
struct JobDefaults {
  int phases = 4;
  int verify_rounds = 8;
  bool cec = true;
  /// Drop the verification passes (timing/sim/cec) from every job.
  bool skip_checks = false;
};

struct ServeConfig {
  /// Worker threads for cache-miss dispatch (`FlowEngine::run_many`),
  /// per session.
  int threads = 1;
  /// Maximum requests pulled into one dispatch batch.
  int batch_size = 16;
  JobDefaults defaults;
  /// Memory tier byte budget.
  std::size_t cache_bytes = kDefaultCacheBytes;
  /// Non-empty: directory for the persistent disk tier (created when
  /// missing, recovered on boot).
  std::string cache_dir;
  /// How long shutdown waits for in-flight batches before aborting their
  /// connections.
  int drain_timeout_ms = 5000;
};

struct ServeCounters {
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::uint64_t errors = 0;  // malformed / rejected requests among them
  std::uint64_t batches = 0;
  std::uint64_t connections = 0;
};

class Server {
 public:
  explicit Server(ServeConfig config = {});

  /// Accepts connections from `transport` and serves each on its own
  /// thread until a `quit` command or `transport.shutdown()`, then drains.
  /// Returns the total number of responses written.
  std::uint64_t serve(Transport& transport);

  /// Single-session convenience over the historical stream pair: reads
  /// JSONL requests from `in` until EOF or `quit`, writing one response
  /// line per request to `out` (flushed per batch).  Blank lines are
  /// ignored.
  std::uint64_t serve(std::istream& in, std::ostream& out);

  /// The shared cache: memory, plus disk when `cache_dir` is set.
  const TieredCache& cache() const { return cache_; }
  TieredCache& cache() { return cache_; }

  ServeCounters counters() const;

  /// One-line human summary of the session (requests, hit rate, bytes) for
  /// the CLI's stderr epilogue.
  std::string summary() const;

 private:
  struct Job;
  struct SessionState;

  Job parse_request(const std::string& line, std::uint64_t seq,
                    AigHasher& hasher) const;
  void process_batch(t1::FlowEngine& engine, std::vector<Job>& batch);
  void write_response(Connection& conn, const Job& job);
  void run_session(Connection& conn, Transport& transport);

  ServeConfig config_;
  TieredCache cache_;
  /// `Pipeline::default_flow(with_cec, skip_checks).spec()` indexed by
  /// `with_cec`: the only two pipelines this server runs, spelled once for
  /// every request's cache key and batch group.
  std::array<std::string, 2> pipeline_specs_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> connections_{0};

  /// Per-config dispatch-latency histograms ("1phi"/"nphi"/"t1"), merged
  /// across sessions; guarded because sessions record concurrently.
  mutable std::mutex latency_mu_;
  std::map<std::string, LatencyHistogram> latency_;
};

}  // namespace t1map::serve
