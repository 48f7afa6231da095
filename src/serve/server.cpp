#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "common/require.hpp"
#include "gen/registry.hpp"
#include "io/aiger.hpp"
#include "io/blif.hpp"
#include "io/json.hpp"
#include "serve/json_out.hpp"

namespace t1map::serve {

namespace {

/// Every key a request may carry; anything else is a typo worth rejecting
/// loudly rather than silently ignoring.
constexpr const char* kKnownFields[] = {
    "cmd",    "id",     "gen", "blif", "aiger",
    "config", "phases", "verify_rounds", "cec",
};

bool known_field(const std::string& name) {
  for (const char* field : kKnownFields) {
    if (name == field) return true;
  }
  return false;
}

/// Reads an integral number field with range validation.
int int_field(const io::Json& request, const char* name, int fallback, int lo,
              int hi) {
  const io::Json* field = request.find(name);
  if (field == nullptr) return fallback;
  T1MAP_REQUIRE(field->is_number(), std::string(name) + " must be a number");
  const double value = field->as_number();
  T1MAP_REQUIRE(value == std::floor(value) && value >= lo && value <= hi,
                std::string(name) + " must be an integer in [" +
                    std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return static_cast<int>(value);
}

void write_cache_stats_fields(io::JsonWriter& w, const CacheStats& c) {
  w.key("hits").value(c.hits).key("misses").value(c.misses);
  w.key("insertions").value(c.insertions);
  w.key("evictions").value(c.evictions);
  w.key("entries").value(c.entries).key("bytes").value(c.bytes);
}

}  // namespace

/// One request through its whole lifecycle: parse → hash → dispatch →
/// response fields.
struct Server::Job {
  io::Json id;  // echoed verbatim
  std::string cmd;
  std::string error;  // non-empty: error response, nothing dispatched
  std::string design;
  std::string config_name = "t1";  // latency-histogram key
  Aig aig;
  t1::FlowParams params;
  bool with_cec = false;  // the job's pipeline appends SAT CEC
  CacheKey key;
  std::uint64_t group = 0;  // configuration fingerprint (grouping key)
  // Outcome.  A hit fills only `served`; a computed job also sets `ms`,
  // and a failed run sets `status` and `failure` instead of `served`.
  bool cached = false;
  t1::FlowStatus status = t1::FlowStatus::kOk;
  ServedResult served;
  std::string failure;  // first error diagnostic of a failed run
  double ms = 0.0;      // flow compute time; 0 on a hit
};

/// Bookkeeping for one connection's session thread, shared with the
/// accept/drain loop.
struct Server::SessionState {
  std::unique_ptr<Connection> conn;
  std::thread thread;
  std::atomic<bool> done{false};
};

Server::Server(ServeConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_bytes, config_.cache_dir),
      pipeline_specs_{
          t1::Pipeline::default_flow(false, config_.defaults.skip_checks)
              .spec(),
          t1::Pipeline::default_flow(true, config_.defaults.skip_checks)
              .spec()} {}

Server::Job Server::parse_request(const std::string& line, std::uint64_t seq,
                                  AigHasher& hasher) const {
  Job job;
  job.id = io::Json(static_cast<double>(seq));
  io::Json request;
  try {
    request = io::Json::parse(line);
  } catch (const ContractError& e) {
    job.error = std::string("malformed JSON: ") + e.what();
    return job;
  }

  const JobDefaults& defaults = config_.defaults;
  try {
    T1MAP_REQUIRE(request.is_object(), "request must be a JSON object");
    for (const auto& [name, value] : request.members()) {
      T1MAP_REQUIRE(known_field(name), "unknown field '" + name + "'");
    }
    if (const io::Json* id = request.find("id")) job.id = *id;

    if (const io::Json* cmd = request.find("cmd")) {
      job.cmd = cmd->as_string();
      T1MAP_REQUIRE(job.cmd == "stats" || job.cmd == "quit",
                    "unknown cmd '" + job.cmd + "' (stats|quit)");
      // A command carrying job fields is almost certainly two requests
      // accidentally merged; dropping the job silently would lose work.
      for (const char* field :
           {"gen", "blif", "aiger", "config", "phases", "verify_rounds",
            "cec"}) {
        T1MAP_REQUIRE(request.find(field) == nullptr,
                      "cmd '" + job.cmd + "' does not take the job field '" +
                          field + "'");
      }
      return job;
    }

    const io::Json* gen = request.find("gen");
    const io::Json* blif = request.find("blif");
    const io::Json* aiger = request.find("aiger");
    T1MAP_REQUIRE((gen != nullptr) + (blif != nullptr) + (aiger != nullptr) ==
                      1,
                  "exactly one of 'gen', 'blif' or 'aiger' is required");
    if (gen != nullptr) {
      job.design = gen->as_string();
      job.aig = gen::make_named(job.design);
    } else if (aiger != nullptr) {
      // Inline ASCII AIGER payload (JSON strings cannot carry the binary
      // variant's raw bytes; clients convert with --export-aiger first).
      job.aig = io::read_aiger_string(aiger->as_string());
      job.design = "aiger";
    } else {
      std::istringstream text(blif->as_string());
      std::string model_name;
      job.aig = io::read_blif(text, &model_name);
      job.design = model_name;
    }

    std::string config = "t1";
    if (const io::Json* c = request.find("config")) config = c->as_string();
    T1MAP_REQUIRE(config == "1phi" || config == "nphi" || config == "t1",
                  "config must be one of 1phi|nphi|t1, got '" + config + "'");
    job.config_name = config;
    job.params.use_t1 = config == "t1";
    // The phases field is validated whenever present — config 1phi pins
    // the value, it does not exempt the request from type checking.
    const int phases = int_field(request, "phases", defaults.phases, 1, 64);
    if (config == "1phi") {
      T1MAP_REQUIRE(request.find("phases") == nullptr || phases == 1,
                    "config 1phi is single-phase; it conflicts with phases " +
                        std::to_string(phases));
      job.params.num_phases = 1;
    } else {
      job.params.num_phases = phases;
    }
    T1MAP_REQUIRE(!job.params.use_t1 || job.params.num_phases >= 3,
                  "the t1 config needs phases >= 3");
    job.params.verify_rounds = int_field(request, "verify_rounds",
                                         defaults.verify_rounds, 0, 1 << 20);
    job.with_cec = defaults.cec;
    if (const io::Json* cec = request.find("cec")) {
      job.with_cec = cec->as_bool();
    }
  } catch (const ContractError& e) {
    job.error = e.what();
    return job;
  }

  // `group` keys the run_many batching (same configuration => same group),
  // the full `key` addresses the cache.
  const std::string& spec = pipeline_specs_[job.with_cec ? 1 : 0];
  job.group = config_fingerprint(job.params, spec);
  job.key = cache_key(hasher.hash(job.aig), job.params, spec);
  return job;
}

void Server::process_batch(t1::FlowEngine& engine, std::vector<Job>& batch) {
  // Group flow jobs by configuration; each group's cache misses are one
  // run_many dispatch.
  std::vector<std::uint64_t> groups;
  for (const Job& job : batch) {
    if (!job.error.empty() || !job.cmd.empty()) continue;
    bool seen = false;
    for (const std::uint64_t g : groups) seen |= g == job.group;
    if (!seen) groups.push_back(job.group);
  }

  for (const std::uint64_t group : groups) {
    const auto start = std::chrono::steady_clock::now();
    // Hits fill without touching the flow; the first job of each missing
    // key is computed, and its later repeats in the batch are aliases.
    std::vector<std::size_t> members;
    std::vector<std::size_t> misses;
    std::vector<std::pair<std::size_t, std::size_t>> aliases;  // (job, miss)
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Job& job = batch[i];
      if (!job.error.empty() || !job.cmd.empty() || job.group != group) {
        continue;
      }
      members.push_back(i);
      // A repeat of a pending miss is not looked up yet: its one counted
      // lookup is the re-read after the compute.
      const auto rep = std::find_if(
          misses.begin(), misses.end(),
          [&](std::size_t m) { return batch[m].key == job.key; });
      if (rep != misses.end()) {
        aliases.emplace_back(i, *rep);
      } else if (cache_.lookup(job.key, job.served)) {
        job.cached = true;
      } else {
        misses.push_back(i);
      }
    }

    const Job& first = batch[members.front()];
    if (!misses.empty()) {
      std::vector<const Aig*> aigs;
      for (const std::size_t m : misses) aigs.push_back(&batch[m].aig);
      engine.set_pipeline(t1::Pipeline::default_flow(
          first.with_cec, config_.defaults.skip_checks));
      const std::vector<t1::EngineResult> results =
          engine.run_many(aigs, first.params, config_.threads);
      for (std::size_t k = 0; k < misses.size(); ++k) {
        Job& job = batch[misses[k]];
        const t1::EngineResult& result = results[k];
        job.status = result.status;
        job.ms = 1e3 * result.total_seconds;
        // Only ok-results are stored: a failed run has no stats to serve.
        if (!result.ok()) {
          job.failure = result.diagnostics.first_error();
          continue;
        }
        job.served = ServedResult{result.stats, result.cec};
        cache_.store(job.key, job.served);
      }
    }
    // Aliases re-read through the cache so hit counters stay truthful; a
    // failed representative (never stored) is copied directly instead.
    for (const auto& [i, rep] : aliases) {
      Job& job = batch[i];
      job.cached = cache_.lookup(job.key, job.served);
      if (!job.cached) {
        const Job& from = batch[rep];
        job.status = from.status;
        job.served = from.served;
        job.failure = from.failure;
        job.ms = from.ms;
      }
    }

    const double dispatch_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    // One dispatch-latency sample per job in the group: "what did a
    // request of this config cost end to end", cache hits included.
    const std::lock_guard<std::mutex> lock(latency_mu_);
    LatencyHistogram& hist = latency_[first.config_name];
    for (std::size_t m = 0; m < members.size(); ++m) {
      hist.record_ms(dispatch_ms / static_cast<double>(members.size()));
    }
  }
}

void Server::write_response(Connection& conn, const Job& job) {
  std::ostringstream os;
  io::JsonWriter w(os);
  w.begin_object().key("id").value(job.id);

  if (!job.error.empty()) {
    w.key("ok").value(false).key("error").value(job.error);
    w.end_object();
  } else if (job.cmd == "stats") {
    w.key("ok").value(true);
    w.key("serve").begin_object();
    w.key("requests").value(requests_.load(std::memory_order_relaxed));
    w.key("batches").value(batches_.load(std::memory_order_relaxed));
    w.key("errors").value(errors_.load(std::memory_order_relaxed));
    w.key("connections").value(connections_.load(std::memory_order_relaxed));

    w.key("cache").begin_object();
    write_cache_stats_fields(w, cache_.stats());
    w.key("tiers").begin_array();
    w.begin_object().key("name").value("memory");
    write_cache_stats_fields(w, cache_.memory().stats());
    w.end_object();
    if (const DiskCache* disk = cache_.disk()) {
      w.begin_object().key("name").value("disk");
      write_cache_stats_fields(w, disk->stats());
      w.key("recovered_entries").value(disk->recovered_entries());
      w.key("recovered_truncated_bytes")
          .value(disk->recovered_truncated_bytes());
      w.end_object();
    }
    w.end_array().end_object();

    // Ignored; kept for perfbench, which reads these six keys.  Every run
    // is cold, so each is 0.
    w.key("incremental").begin_object();
    for (const char* key :
         {"map_cones_total", "map_cones_reused", "t1_cones_total",
          "t1_cones_reused", "t1_exact_hits", "stage_splice_hits"}) {
      w.key(key).value(0);
    }
    w.end_object();

    {
      const std::lock_guard<std::mutex> lock(latency_mu_);
      w.key("latency").begin_object();
      for (const auto& [config, hist] : latency_) {
        w.key(config).value(hist.to_json());
      }
      w.end_object();
    }
    w.end_object().end_object();
  } else if (job.cmd == "quit") {
    w.key("ok").value(true).key("quit").value(true);
    w.end_object();
  } else if (job.status != t1::FlowStatus::kOk) {
    w.key("ok").value(false).key("design").value(job.design);
    w.key("status").value(t1::flow_status_name(job.status));
    w.key("error").value(job.failure);
    w.end_object();
  } else {
    w.key("ok").value(true).key("design").value(job.design);
    w.key("cached").value(job.cached);
    w.key("status").value("ok").key("cec").value(job.served.cec);
    w.key("input").value(aig_input_json(job.aig, /*with_depth=*/false));
    w.key("stats").value(flow_stats_json(job.served.stats));
    // Flow compute time; a cache hit costs none, so this is the only
    // response field that varies between sessions.
    w.key("ms").value(job.ms);
    w.end_object();
  }
  os << '\n';
  conn.write(os.str());
}

void Server::run_session(Connection& conn, Transport& transport) {
  // Each session owns its engine (pipeline state is per-session) and
  // hasher; the cache and the counters are the shared state.
  t1::FlowEngine engine;
  AigHasher hasher;
  connections_.fetch_add(1, std::memory_order_relaxed);

  std::string line;
  bool quit = false;
  bool closed = false;
  while (!quit && !closed) {
    std::vector<Job> batch;
    while (static_cast<int>(batch.size()) < config_.batch_size) {
      // The first read blocks (waiting for work); once the batch is
      // non-empty, only lines already buffered are pulled in, so a
      // synchronous client that awaits each response before sending the
      // next request is answered immediately instead of deadlocking on an
      // unfilled batch.
      const ReadResult rr = conn.read_line(line, /*wait=*/batch.empty());
      if (rr == ReadResult::kIdle) break;
      if (rr == ReadResult::kClosed) {
        closed = true;
        break;
      }
      if (line.empty()) continue;  // blank keep-alive lines are fine
      const std::uint64_t seq =
          requests_.fetch_add(1, std::memory_order_relaxed) + 1;
      batch.push_back(parse_request(line, seq, hasher));
      // Malformed lines are counted where they are detected, so every
      // transport reports them identically (and `stats` sees errors from
      // its own batch).
      if (!batch.back().error.empty()) {
        errors_.fetch_add(1, std::memory_order_relaxed);
      }
      // A rejected quit (e.g. one carrying job fields) must not shut the
      // session down.
      if (batch.back().cmd == "quit" && batch.back().error.empty()) {
        quit = true;
        break;
      }
    }
    if (batch.empty()) break;  // EOF / shutdown

    batches_.fetch_add(1, std::memory_order_relaxed);
    process_batch(engine, batch);
    for (const Job& job : batch) {
      write_response(conn, job);
      responses_.fetch_add(1, std::memory_order_relaxed);
    }
    conn.flush();
  }

  // quit shuts the whole server down, not just this client: the accept
  // loop wakes, stops accepting, and drains the other sessions.
  if (quit) transport.shutdown();
}

std::uint64_t Server::serve(Transport& transport) {
  std::vector<std::unique_ptr<SessionState>> sessions;
  std::mutex mu;
  std::condition_variable cv;

  while (std::unique_ptr<Connection> conn = transport.accept()) {
    auto state = std::make_unique<SessionState>();
    state->conn = std::move(conn);
    SessionState* raw = state.get();
    state->thread = std::thread([this, raw, &transport, &mu, &cv] {
      run_session(*raw->conn, transport);
      {
        const std::lock_guard<std::mutex> lock(mu);
        // Close the connection as the session ends (the peer must see EOF
        // now, not at drain time).  Under the lock so the drain loop never
        // aborts a connection mid-destruction.
        raw->conn.reset();
        raw->done.store(true, std::memory_order_release);
      }
      cv.notify_all();
    });
    sessions.push_back(std::move(state));

    // Reap finished sessions so a long-lived server doesn't accumulate
    // joinable threads.
    for (auto& s : sessions) {
      if (s && s->done.load(std::memory_order_acquire)) {
        s->thread.join();
        s.reset();
      }
    }
    std::erase_if(sessions,
                  [](const std::unique_ptr<SessionState>& s) { return !s; });
  }

  // Drain: sessions see kClosed on their next blocking read (the shutdown
  // pipe stays readable).  Give in-flight batches drain_timeout_ms, then
  // abort the stragglers' connections and join everyone.
  {
    std::unique_lock<std::mutex> lock(mu);
    const auto all_done = [&sessions] {
      for (const auto& s : sessions) {
        if (!s->done.load(std::memory_order_acquire)) return false;
      }
      return true;
    };
    if (!cv.wait_for(lock, std::chrono::milliseconds(config_.drain_timeout_ms),
                     all_done)) {
      for (auto& s : sessions) {
        if (!s->done.load(std::memory_order_acquire)) s->conn->abort();
      }
    }
  }
  for (auto& s : sessions) s->thread.join();
  return responses_.load(std::memory_order_relaxed);
}

std::uint64_t Server::serve(std::istream& in, std::ostream& out) {
  StreamTransport transport(in, out);
  return serve(transport);
}

ServeCounters Server::counters() const {
  ServeCounters c;
  c.requests = requests_.load(std::memory_order_relaxed);
  c.responses = responses_.load(std::memory_order_relaxed);
  c.errors = errors_.load(std::memory_order_relaxed);
  c.batches = batches_.load(std::memory_order_relaxed);
  c.connections = connections_.load(std::memory_order_relaxed);
  return c;
}

std::string Server::summary() const {
  const ServeCounters n = counters();
  const CacheStats c = cache_.stats();
  std::ostringstream os;
  os << n.requests << " requests in " << n.batches << " batches ("
     << n.errors << " errors), cache: " << c.hits << " hits / " << c.misses
     << " misses, " << c.entries << " entries, " << c.bytes << " bytes";
  if (c.evictions > 0) os << ", " << c.evictions << " evictions";
  return os.str();
}

}  // namespace t1map::serve
