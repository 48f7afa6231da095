// The `serve` workload: one closed-loop client sends a seeded script of
// inline-AIGER requests to an in-process `serve::Server` over a Unix
// socket, restarts the server on the same disk-cache directory, and sends
// the disk-tier repeats.  Four request classes:
//   cold  first sight of a (circuit, config) pair, on a new connection and
//         so in a server session with an empty cone memo;
//   edit  a one-gate mutant under t1, sent on the same connection right
//         after a computed run of its base or a sibling, so the session's
//         cone memo can splice;
//   hit   a memory-tier repeat of a computed pair;
//   disk  the first repeat of a computed pair after the restart.
// Traced passes add request spans and then replay every payload through
// the public io/serve calls and the flow passes (`run_passes`).

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "fuzz/mutate.hpp"
#include "gen/registry.hpp"
#include "io/aiger.hpp"
#include "io/json.hpp"
#include "serve/aig_hash.hpp"
#include "serve/server.hpp"
#include "trace.hpp"

namespace t1bench {

namespace {

using namespace t1map;

/// Mid-size generator circuits: cold runs from ~1 ms (voter25) to ~60 ms
/// (cordic20, a 226 KB payload whose hits are parse- and hash-bound).
const std::vector<std::string> kBases = {
    "mul8", "adder64", "voter25", "square12", "comparator16", "sin12",
    "cordic20"};
const std::vector<std::string> kConfigs = {"1phi", "nphi", "t1"};
// The mix is synthetic: no client traffic is recorded to copy.  Each class
// is sized so its p50 has as many samples as the scarcest class, cold (one
// per base and config).  Edits: 3 mutants per base under t1, as many as
// cold.  Hits and disk repeats: one of each per computed pair, as a disk
// hit can serve a key only once per restart.  Cached requests are 2/3 of
// a pass, so the all-request p50 falls among them; p99 falls among the
// computed requests of cordic20.
constexpr int kMutantsPerBase = 3;  // edits, all sent under t1
constexpr int kHitsPerPair = 1;     // memory-tier repeats per computed pair
constexpr int kMaxRedraws = 64;
constexpr std::size_t kMinRequests = 1000;  // per run, for a stable p99

enum class Kind { kCold, kEdit, kHit, kDisk };
constexpr const char* kKindNames[] = {"cold", "edit", "hit", "disk"};

const char* kind_name(Kind kind) {
  return kKindNames[static_cast<int>(kind)];
}

bool served_from_cache(Kind kind) {
  return kind == Kind::kHit || kind == Kind::kDisk;
}

struct Payload {
  std::string label;  // "mul8" or "mul8~m2"
  std::string aiger;  // inline ASCII AIGER
  bool is_base = false;
};

/// One (payload, config) problem the server computes once per pass.
struct Pair {
  std::size_t payload = 0;
  std::string config;
  std::string line;  // the request, newline-terminated
  std::string expected_stats;
};

struct Request {
  std::size_t pair = 0;
  Kind kind = Kind::kCold;
};

struct Script {
  std::vector<Payload> payloads;
  std::vector<Pair> pairs;
  std::vector<Request> before_restart;  // cold, edit, hit
  std::vector<Request> after_restart;   // disk
  int redraws = 0;  // mutants rejected for hashing like an earlier payload
};

std::string request_line(std::size_t id, const std::string& aiger,
                         const std::string& config) {
  std::ostringstream os;
  io::JsonWriter w(os);
  w.begin_object().key("id").value(static_cast<double>(id));
  w.key("aiger").value(aiger).key("config").value(config);
  w.key("cec").value(false).end_object();
  os << '\n';
  return os.str();
}

template <class T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

/// Builds the request script of one seed: circuits, mutants, payload
/// encoding and request order.  This is the workload's input generation.
Script make_script(std::uint64_t seed) {
  Rng rng(seed);
  Script s;
  std::vector<serve::Digest> digests;  // as the server will hash each payload
  const auto add_payload = [&](std::string label, const Aig& aig,
                               bool is_base) {
    std::ostringstream os;
    io::write_aiger(os, aig);
    const serve::Digest digest =
        serve::hash_aig(io::read_aiger_string(os.str()));
    for (const serve::Digest& d : digests) {
      if (d == digest) return false;
    }
    digests.push_back(digest);
    s.payloads.push_back(Payload{std::move(label), os.str(), is_base});
    return true;
  };
  const auto add_pair = [&](std::size_t payload, const std::string& config) {
    s.pairs.push_back(Pair{payload, config,
                           request_line(s.pairs.size(),
                                        s.payloads[payload].aiger, config),
                           {}});
    return s.pairs.size() - 1;
  };

  // Blocks of computed requests: a base's cold run under each config; the
  // t1 block continues with that base's mutants, each right after a
  // computed run of its base or a sibling.  Each block is sent on a
  // connection of its own, so its cold run meets a fresh session memo.
  std::vector<std::vector<Request>> blocks;
  for (const std::string& name : kBases) {
    const Aig base = gen::make_named(name);
    T1MAP_REQUIRE(add_payload(name, base, true),
                  "base circuits collide: " + name);
    const std::size_t base_payload = s.payloads.size() - 1;
    std::vector<std::size_t> mutants;
    for (int m = 0; m < kMutantsPerBase; ++m) {
      // Redraw a mutant that hashes like its base (an edit outside every
      // PO cone) or like an earlier payload: the server would answer it
      // from the cache, and it would not be an edit.
      int attempts = 0;
      while (!add_payload(name + "~m" + std::to_string(m),
                          fuzz::mutate_aig(base, {rng.next(), 1}), false)) {
        ++s.redraws;
        T1MAP_REQUIRE(++attempts < kMaxRedraws,
                      "no distinct mutant of " + name);
      }
      mutants.push_back(s.payloads.size() - 1);
    }
    for (const std::string& config : kConfigs) {
      std::vector<Request> block = {{add_pair(base_payload, config),
                                     Kind::kCold}};
      if (config == "t1") {
        for (const std::size_t m : mutants) {
          block.push_back({add_pair(m, config), Kind::kEdit});
        }
      }
      blocks.push_back(std::move(block));
    }
  }
  shuffle(blocks, rng);

  // Interleave kHitsPerPair hits of every computed pair at random points
  // after its first sight.  Hits never touch the session's memo, so they
  // may fall inside a block.
  std::vector<Request> computed;
  for (const auto& block : blocks) {
    computed.insert(computed.end(), block.begin(), block.end());
  }
  std::vector<std::size_t> pending_hits;
  std::size_t next = 0;
  while (next < computed.size() || !pending_hits.empty()) {
    const std::size_t left = computed.size() - next;
    if (left > 0 && (pending_hits.empty() ||
                     rng.below(left + pending_hits.size()) < left)) {
      s.before_restart.push_back(computed[next]);
      pending_hits.insert(pending_hits.end(), kHitsPerPair,
                          computed[next].pair);
      ++next;
    } else {
      const std::size_t pick = rng.below(pending_hits.size());
      s.before_restart.push_back({pending_hits[pick], Kind::kHit});
      pending_hits[pick] = pending_hits.back();
      pending_hits.pop_back();
    }
  }
  for (const Request& r : computed) {
    s.after_restart.push_back({r.pair, Kind::kDisk});
  }
  shuffle(s.after_restart, rng);
  return s;
}

/// Untimed correctness oracle: the Table-I stats of a cold FlowEngine run
/// of each pair, on the AIG parsed from the exact payload the server gets.
void fill_expected_stats(Script& s) {
  t1::FlowEngine engine(t1::Pipeline::default_flow(false));
  engine.set_incremental(false);
  for (Pair& pair : s.pairs) {
    const Aig aig = io::read_aiger_string(s.payloads[pair.payload].aiger);
    const t1::EngineResult r = engine.run(aig, params_for_config(pair.config));
    T1MAP_REQUIRE(r.ok(), "oracle run failed on " +
                              s.payloads[pair.payload].label + "/" +
                              pair.config);
    pair.expected_stats = stats_signature(r.stats);
  }
}

/// Minimal blocking JSONL client over a Unix socket.
class LineClient {
 public:
  explicit LineClient(const std::string& path)
      : fd_(::socket(AF_UNIX, SOCK_STREAM, 0)) {
    T1MAP_REQUIRE(fd_ >= 0, std::string("socket: ") + std::strerror(errno));
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    T1MAP_REQUIRE(path.size() < sizeof sa.sun_path,
                  "socket path too long: " + path);
    std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
    T1MAP_REQUIRE(::connect(fd_, reinterpret_cast<sockaddr*>(&sa),
                            sizeof sa) == 0,
                  "connect " + path + ": " + std::strerror(errno));
  }
  ~LineClient() { ::close(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends one newline-terminated request.
  void send(const std::string& line) {
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      T1MAP_REQUIRE(n > 0, std::string("send: ") + std::strerror(errno));
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Blocks for the next response line (without its newline).
  std::string receive() {
    for (;;) {
      const std::size_t eol = buffer_.find('\n');
      if (eol != std::string::npos) {
        std::string line = buffer_.substr(0, eol);
        buffer_.erase(0, eol + 1);
        return line;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      T1MAP_REQUIRE(n > 0, "server closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::string call(const std::string& line) {
    send(line);
    return receive();
  }

 private:
  int fd_;
  std::string buffer_;
};

/// A `Server` answering on a Unix socket from its own thread.  Destruction
/// shuts the listener down and joins the thread.
class RunningServer {
 public:
  RunningServer(const serve::ServeConfig& config, const std::string& socket)
      : server_(config),
        listener_(serve::parse_listen_address("unix:" + socket)) {
    thread_ = std::thread([this] {
      try {
        server_.serve(listener_);
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }
  ~RunningServer() { stop(); }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  /// Shuts the listener down, joins the serving thread and returns its
  /// exception message ("" when it ended cleanly).
  std::string stop() {
    if (thread_.joinable()) {
      listener_.shutdown();
      thread_.join();
    }
    return error_;
  }

 private:
  serve::Server server_;
  serve::SocketListener listener_;
  std::string error_;
  std::thread thread_;  // last: it uses every member above
};

const std::string kStatsLine = "{\"cmd\":\"stats\"}\n";
const std::string kQuitLine = "{\"cmd\":\"quit\"}\n";

/// Raw outcome of one pass over the script.
struct PassRecord {
  double wall_s = 0.0;  // request loops of both phases, boots excluded
  double cpu_s = 0.0;
  double boot_ms = 0.0;  // both server constructions, recovery included
  std::vector<double> latency_ms;  // before_restart then after_restart
  std::vector<std::string> responses;
  std::string stats_before, stats_after;  // `stats` at the end of a phase
  std::string server_error;
};

/// Sends `requests` in a closed loop, one span per request when traced.
/// Each cold request opens a new connection, and with it a server session
/// whose engine and cone memo are fresh; the requests after it, up to the
/// next cold one, share that session.
void send_requests(std::unique_ptr<LineClient>& client,
                   const std::string& socket, const Script& s,
                   const std::vector<Request>& requests, Tracer* tracer,
                   long& request_seq, PassRecord& rec) {
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  for (const Request& r : requests) {
    if (client == nullptr || r.kind == Kind::kCold) {
      client.reset();  // closes the previous session first
      client = std::make_unique<LineClient>(socket);
    }
    const Pair& pair = s.pairs[r.pair];
    const TraceScope span(
        tracer, "request", request_seq++,
        tracer != nullptr ? std::string(kind_name(r.kind)) + " " +
                                s.payloads[pair.payload].label + "/" +
                                pair.config
                          : std::string());
    const Clock::time_point tr = Clock::now();
    rec.responses.push_back(client->call(pair.line));
    rec.latency_ms.push_back(1e3 * seconds_since(tr));
  }
  rec.wall_s += seconds_since(t0);
  rec.cpu_s += process_cpu_s() - cpu0;
}

PassRecord run_pass(const Script& s, const std::string& dir,
                    const std::string& socket, Tracer* tracer,
                    long& request_seq) {
  std::filesystem::remove_all(dir);
  serve::ServeConfig config;
  config.threads = 1;
  config.cache_dir = dir;
  PassRecord rec;
  const auto phase = [&](const std::vector<Request>& requests,
                         std::string& stats) {
    std::unique_ptr<RunningServer> server;
    {
      const TraceScope span(tracer, "boot");
      const Clock::time_point t0 = Clock::now();
      server = std::make_unique<RunningServer>(config, socket);
      rec.boot_ms += 1e3 * seconds_since(t0);
    }
    {
      std::unique_ptr<LineClient> client;
      send_requests(client, socket, s, requests, tracer, request_seq, rec);
      stats = client->call(kStatsLine);
      client->call(kQuitLine);
    }
    rec.server_error += server->stop();
  };
  phase(s.before_restart, rec.stats_before);
  phase(s.after_restart, rec.stats_after);
  std::filesystem::remove_all(dir);
  return rec;
}

double number_at(const io::Json& j, std::initializer_list<const char*> path) {
  const io::Json* node = &j;
  for (const char* key : path) node = &node->at(key);
  return node->as_number();
}

/// Counts of the server's cache and memo, read from a `stats` response.
struct ServerCounters {
  double hits = 0, misses = 0, memory_hits = 0, disk_hits = 0;
  double map_total = 0, map_reused = 0, t1_total = 0, t1_reused = 0;
  double t1_exact = 0, stage_splices = 0;
};

ServerCounters parse_server_counters(const std::string& line) {
  const io::Json j = io::Json::parse(line);
  const io::Json& serve_block = j.at("serve");
  ServerCounters c;
  c.hits = number_at(serve_block, {"cache", "hits"});
  c.misses = number_at(serve_block, {"cache", "misses"});
  const io::Json& tiers = serve_block.at("cache").at("tiers");
  c.memory_hits = number_at(tiers.at(0), {"hits"});
  c.disk_hits = number_at(tiers.at(1), {"hits"});
  const io::Json& inc = serve_block.at("incremental");
  c.map_total = number_at(inc, {"map_cones_total"});
  c.map_reused = number_at(inc, {"map_cones_reused"});
  c.t1_total = number_at(inc, {"t1_cones_total"});
  c.t1_reused = number_at(inc, {"t1_cones_reused"});
  c.t1_exact = number_at(inc, {"t1_exact_hits"});
  c.stage_splices = number_at(inc, {"stage_splice_hits"});
  return c;
}

/// Per-pass totals the checks and the per-layer metrics need.
struct PassTotals {
  double flow_ms = 0.0;      // sum of response "ms"
  double overhead_ms = 0.0;  // sum of client latency - "ms"
  ServerCounters before, after;
};

/// Checks every response and both `stats` snapshots of a pass; returns the
/// totals read from them.
PassTotals check_pass(const Script& s, const PassRecord& rec, Outcome& out) {
  PassTotals totals;
  std::size_t i = 0;
  for (const auto* requests : {&s.before_restart, &s.after_restart}) {
    for (const Request& r : *requests) {
      const Pair& pair = s.pairs[r.pair];
      const std::string& response = rec.responses[i];
      bool ok = false;
      try {
        const io::Json j = io::Json::parse(response);
        std::ostringstream stats;
        j.at("stats").write(stats, -1);
        ok = j.at("ok").as_bool() &&
             j.at("id").as_number() == static_cast<double>(r.pair) &&
             j.at("cached").as_bool() == served_from_cache(r.kind) &&
             j.at("cec").as_string() == "skipped" &&
             stats.str() == pair.expected_stats;
        const double ms = j.at("ms").as_number();
        totals.flow_ms += ms;
        totals.overhead_ms += rec.latency_ms[i] - ms;
      } catch (const ContractError&) {
        ok = false;
      }
      out.check(ok, std::string(kind_name(r.kind)) + " request for " +
                        s.payloads[pair.payload].label + "/" + pair.config +
                        ": " + response.substr(0, 300));
      ++i;
    }
  }

  // The cache counters must match the script exactly: every pre-restart
  // repeat a memory hit, every post-restart request a disk hit.
  const double computed = static_cast<double>(s.after_restart.size());
  const double hits = static_cast<double>(s.before_restart.size()) - computed;
  totals.before = parse_server_counters(rec.stats_before);
  totals.after = parse_server_counters(rec.stats_after);
  out.check(totals.before.hits == hits && totals.before.misses == computed &&
                totals.before.memory_hits == hits &&
                totals.before.disk_hits == 0,
            "cache counters before the restart: " + rec.stats_before);
  out.check(totals.after.hits == computed && totals.after.misses == 0 &&
                totals.after.memory_hits == 0 &&
                totals.after.disk_hits == computed,
            "cache counters after the restart: " + rec.stats_after);
  out.check(rec.server_error.empty(), "server thread: " + rec.server_error);
  return totals;
}

/// What one replay counted.
struct ReplayTotals {
  ServerCounters memo;  // only the cone-memo fields are filled
  double t1_found = 0, t1_used = 0, dffs_t1 = 0, dffs_nphi = 0;
};

/// Replays a pass's payloads through the public io/serve calls and its
/// computed requests through the flow passes, on engines whose cone memos
/// see the same run sequences as the server sessions'.
ReplayTotals replay(const Script& s, Tracer& tracer, long& request_seq,
                    Outcome& out) {
  std::unique_ptr<t1::FlowEngine> session;  // incremental, as the server's
  ReplayTotals totals;
  ServerCounters& memo = totals.memo;
  for (const auto* requests : {&s.before_restart, &s.after_restart}) {
    for (const Request& r : *requests) {
      const Pair& pair = s.pairs[r.pair];
      const long id = request_seq++;
      const TraceScope request_span(&tracer, "replay", id, kind_name(r.kind));
      Aig aig;
      {
        const TraceScope span(&tracer, "parse", id);
        const io::Json request = io::Json::parse(pair.line);
        aig = io::read_aiger_string(request.at("aiger").as_string());
      }
      {
        const TraceScope span(&tracer, "hash", id);
        serve::hash_aig(aig);
      }
      if (served_from_cache(r.kind)) continue;
      if (r.kind == Kind::kCold) {  // a new connection, so a new session
        session = std::make_unique<t1::FlowEngine>(
            t1::Pipeline::default_flow(false));
      }
      const t1::FlowContext ctx = run_passes(
          session->pipeline(), aig, params_for_config(pair.config),
          session->scratch(), tracer, id,
          s.payloads[pair.payload].label + "/" + pair.config, nullptr);
      out.check(ctx.status == t1::FlowStatus::kOk &&
                    stats_signature(ctx.stats) == pair.expected_stats,
                "replay of " + s.payloads[pair.payload].label + "/" +
                    pair.config + ": " + stats_signature(ctx.stats));
      if (pair.config == "t1") {
        totals.t1_found += ctx.stats.t1_found;
        totals.t1_used += ctx.stats.t1_used;
        totals.dffs_t1 += static_cast<double>(ctx.stats.dffs);
      } else if (pair.config == "nphi") {
        totals.dffs_nphi += static_cast<double>(ctx.stats.dffs);
      }
      if (r.kind == Kind::kCold) {
        out.check(ctx.reuse.map_cones_reused == 0 &&
                      ctx.reuse.t1_cones_reused == 0 && !ctx.reuse.t1_exact &&
                      !ctx.reuse.stage_spliced,
                  "cold run of " + s.payloads[pair.payload].label + "/" +
                      pair.config + " reused the cone memo");
      }
      memo.map_total += ctx.reuse.map_cones_total;
      memo.map_reused += ctx.reuse.map_cones_reused;
      memo.t1_total += ctx.reuse.t1_cones_total;
      memo.t1_reused += ctx.reuse.t1_cones_reused;
      memo.t1_exact += ctx.reuse.t1_exact ? 1 : 0;
      memo.stage_splices += ctx.reuse.stage_spliced ? 1 : 0;
    }
  }
  return totals;
}

}  // namespace

Outcome run_serve_workload(const Options& options, Tracer* tracer) {
  Outcome out;
  const auto set_up = [&] { return make_script(options.seed); };
  std::vector<double> script_s;
  Script script = time_setup(set_up, script_s);
  fill_expected_stats(script);

  std::filesystem::create_directories(options.work_dir);
  const std::string base =
      options.work_dir + "/serve-" + std::to_string(::getpid());
  const std::string dir = base + ".cache";
  const std::string socket = base + ".sock";
  const Budget budget = budget_for(options);
  const std::size_t per_pass =
      script.before_restart.size() + script.after_restart.size();

  // Untraced passes.
  std::vector<double> wall_s, cpu_s, boot_ms, latency_ms;
  std::vector<double> class_ms[4];
  long request_seq = 0;
  const Clock::time_point untraced_start = Clock::now();
  while (static_cast<int>(wall_s.size()) < budget.min_passes ||
         latency_ms.size() < kMinRequests ||
         seconds_since(untraced_start) < budget.untraced_s) {
    const PassRecord rec = run_pass(script, dir, socket, nullptr, request_seq);
    time_setup(set_up, script_s);
    check_pass(script, rec, out);
    wall_s.push_back(rec.wall_s);
    cpu_s.push_back(rec.cpu_s);
    boot_ms.push_back(rec.boot_ms);
    latency_ms.insert(latency_ms.end(), rec.latency_ms.begin(),
                      rec.latency_ms.end());
    std::size_t i = 0;
    for (const auto* requests :
         {&script.before_restart, &script.after_restart}) {
      for (const Request& r : *requests) {
        class_ms[static_cast<int>(r.kind)].push_back(rec.latency_ms[i++]);
      }
    }
  }

  double area_jj = 0.0;  // t1-config area of the base circuits
  for (const Pair& pair : script.pairs) {
    if (pair.config == "t1" && script.payloads[pair.payload].is_base) {
      area_jj +=
          io::Json::parse(pair.expected_stats).at("jj_total").as_number();
    }
  }

  const double wall = median(wall_s);
  const long passes = static_cast<long>(wall_s.size());
  const long n_latency = static_cast<long>(latency_ms.size());
  auto& e2e = out.end_to_end;
  e2e["setup_s"] = {median(script_s) + 1e-3 * median(boot_ms), "s",
                    static_cast<long>(script_s.size())};
  e2e["wall_s"] = {wall, "s", passes};
  e2e["cpu_s"] = {median(cpu_s), "s", passes};
  e2e["rps"] = {static_cast<double>(per_pass) / wall, "1/s", passes};
  e2e["p50_ms"] = {percentile(latency_ms, 50), "ms", n_latency};
  e2e["p99_ms"] = {percentile(latency_ms, 99), "ms", n_latency};
  e2e["area_jj"] = {area_jj, "JJ", 0};

  auto& layer = out.per_layer;
  for (int k = 0; k < 4; ++k) {
    layer[std::string(kKindNames[k]) + "_p50_ms"] = {
        percentile(class_ms[k], 50), "ms",
        static_cast<long>(class_ms[k].size())};
  }
  layer["serve.boot_ms"] = {median(boot_ms), "ms", passes};
  layer["serve.edit_redraws"] = {static_cast<double>(script.redraws), "count",
                                 0};
  layer["common.cpu_per_wall"] = {median(cpu_s) / wall, "ratio", passes};

  if (tracer != nullptr) {
    std::vector<double> traced_wall_s;
    double flow_ms = 0.0, overhead_ms = 0.0;
    PassTotals last;  // the script is fixed: every pass counts the same
    ReplayTotals replayed;
    const Clock::time_point traced_start = Clock::now();
    while (static_cast<int>(traced_wall_s.size()) < budget.min_passes ||
           seconds_since(traced_start) < budget.traced_s) {
      const PassRecord rec = run_pass(script, dir, socket, tracer, request_seq);
      last = check_pass(script, rec, out);
      traced_wall_s.push_back(rec.wall_s);
      flow_ms += last.flow_ms;
      overhead_ms += last.overhead_ms;
      const ReplayTotals r = replay(script, *tracer, request_seq, out);
      const ServerCounters& server = last.before;
      out.check(r.memo.map_total == server.map_total &&
                    r.memo.map_reused == server.map_reused &&
                    r.memo.t1_total == server.t1_total &&
                    r.memo.t1_reused == server.t1_reused &&
                    r.memo.t1_exact == server.t1_exact &&
                    r.memo.stage_splices == server.stage_splices,
                "replayed cone-memo counters differ from the server's: " +
                    rec.stats_before);
      replayed = r;
    }
    const double n = static_cast<double>(traced_wall_s.size());
    const long samples = static_cast<long>(traced_wall_s.size());
    add_pass_layer_metrics(*tracer, samples, layer);
    std::map<std::string, double> self_ms = tracer->self_ms_by_name();
    layer["io.parse_ms"] = {self_ms["parse"] / n, "ms", samples};
    layer["serve.hash_ms"] = {self_ms["hash"] / n, "ms", samples};
    layer["serve.flow_ms"] = {flow_ms / n, "ms", samples};
    layer["serve.overhead_ms"] = {overhead_ms / n, "ms", samples};
    layer["serve.mem_hits"] = {last.before.memory_hits + last.after.memory_hits,
                               "count", 0};
    layer["serve.disk_hits"] = {last.before.disk_hits + last.after.disk_hits,
                                "count", 0};
    layer["serve.misses"] = {last.before.misses + last.after.misses, "count",
                             0};
    const ServerCounters& c = last.before;
    layer["memo.map_reuse"] = {c.map_total > 0 ? c.map_reused / c.map_total
                                               : 0.0,
                               "ratio", 0};
    layer["memo.t1_reuse"] = {c.t1_total > 0 ? c.t1_reused / c.t1_total : 0.0,
                              "ratio", 0};
    layer["memo.t1_exact"] = {c.t1_exact, "count", 0};
    layer["memo.stage_splices"] = {c.stage_splices, "count", 0};
    layer["t1.found"] = {replayed.t1_found, "count", 0};
    layer["t1.used"] = {replayed.t1_used, "count", 0};
    layer["retime.dffs_t1"] = {replayed.dffs_t1, "count", 0};
    layer["retime.dffs_nphi"] = {replayed.dffs_nphi, "count", 0};
    layer["trace.overhead_pct"] = {
        100.0 * (median(traced_wall_s) - wall) / wall, "%", samples};
  }

  e2e["peak_rss_mb"] = {peak_rss_mb(), "MiB", 0};
  return out;
}

}  // namespace t1bench
