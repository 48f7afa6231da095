// The serving transports: listen-address parsing, unix-socket and TCP
// sessions over a shared Server, cross-client cache sharing, transport-
// independent response bytes, kill-and-restart warm starts through
// --cache-dir, idle-timeout disconnects, and quit-driven drain of
// concurrent connections.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/json.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace t1map {
namespace {

namespace fs = std::filesystem;

serve::ServeConfig fast_config() {
  serve::ServeConfig config;
  config.defaults.verify_rounds = 0;
  config.defaults.cec = false;  // SAT time is not what these tests test
  return config;
}

/// Minimal blocking JSONL client over a connected socket.
class LineClient {
 public:
  static LineClient connect_unix(const std::string& path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    struct sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&sa),
                        sizeof sa),
              0)
        << path;
    return LineClient(fd);
  }

  static LineClient connect_tcp(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    struct sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&sa),
                        sizeof sa),
              0)
        << "port " << port;
    return LineClient(fd);
  }

  explicit LineClient(int fd) : fd_(fd) {}
  LineClient(LineClient&& other) noexcept : fd_(other.fd_), buf_(other.buf_) {
    other.fd_ = -1;
  }
  ~LineClient() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n =
          ::send(fd_, framed.data() + sent, framed.size() - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Blocking line read; empty string means the server closed on us.
  std::string recv_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return std::string();
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

/// A Server on its own accept thread over the given transport.
class ServerFixture {
 public:
  explicit ServerFixture(serve::Transport& transport,
                         serve::ServeConfig config = fast_config())
      : server_(config), thread_([this, &transport] {
          responses_ = server_.serve(transport);
        }) {}
  ~ServerFixture() { join(); }

  void join() {
    if (thread_.joinable()) thread_.join();
  }
  serve::Server& server() { return server_; }
  std::uint64_t responses() const { return responses_; }

 private:
  serve::Server server_;
  std::uint64_t responses_ = 0;
  std::thread thread_;
};

fs::path fresh_path(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / ("t1map_" + name);
  fs::remove_all(p);
  return p;
}

// --- Address parsing ---------------------------------------------------------

TEST(ListenAddress, ParsesAllForms) {
  const serve::ListenAddress unix_addr =
      serve::parse_listen_address("unix:/tmp/x.sock");
  EXPECT_EQ(unix_addr.kind, serve::ListenAddress::Kind::kUnix);
  EXPECT_EQ(unix_addr.path, "/tmp/x.sock");

  const serve::ListenAddress tcp =
      serve::parse_listen_address("tcp:127.0.0.1:4171");
  EXPECT_EQ(tcp.kind, serve::ListenAddress::Kind::kTcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 4171);

  const serve::ListenAddress bare =
      serve::parse_listen_address("localhost:0");
  EXPECT_EQ(bare.kind, serve::ListenAddress::Kind::kTcp);
  EXPECT_EQ(bare.host, "localhost");
  EXPECT_EQ(bare.port, 0);

  const serve::ListenAddress defaulted = serve::parse_listen_address(":9");
  EXPECT_EQ(defaulted.host, "127.0.0.1");
  EXPECT_EQ(defaulted.port, 9);
}

TEST(ListenAddress, RejectsMalformedSpecs) {
  for (const char* bad : {"", "unix:", "tcp:", "tcp:nohost", "noport",
                          "host:", "host:notanumber", "host:99999",
                          "host:-1"}) {
    EXPECT_THROW(serve::parse_listen_address(bad), ContractError) << bad;
  }
}

// --- Socket serving ----------------------------------------------------------

TEST(SocketServe, UnixSocketServesJobsAndShutsDownOnQuit) {
  const fs::path sock = fresh_path("unix_basic.sock");
  serve::SocketListener listener(
      serve::parse_listen_address("unix:" + sock.string()));
  ServerFixture fixture(listener);

  LineClient client = LineClient::connect_unix(sock.string());
  client.send("{\"id\":1,\"gen\":\"adder8\"}");
  const io::Json r1 = io::Json::parse(client.recv_line());
  EXPECT_TRUE(r1.at("ok").as_bool());
  EXPECT_FALSE(r1.at("cached").as_bool());
  EXPECT_EQ(r1.at("design").as_string(), "adder8");

  client.send("{\"id\":2,\"gen\":\"adder8\"}");
  const io::Json r2 = io::Json::parse(client.recv_line());
  EXPECT_TRUE(r2.at("cached").as_bool());
  EXPECT_EQ(r2.at("ms").as_number(), 0.0);

  client.send("{\"id\":3,\"cmd\":\"quit\"}");
  const io::Json r3 = io::Json::parse(client.recv_line());
  EXPECT_TRUE(r3.at("quit").as_bool());

  fixture.join();
  EXPECT_EQ(fixture.responses(), 3u);
  EXPECT_EQ(fixture.server().counters().connections, 1u);
  // The socket path is removed on listener teardown.
}

TEST(SocketServe, TcpEphemeralPortServes) {
  serve::SocketListener listener(
      serve::parse_listen_address("tcp:127.0.0.1:0"));
  ASSERT_NE(listener.bound_port(), 0);  // getsockname resolved the port
  EXPECT_NE(listener.describe().find(std::to_string(listener.bound_port())),
            std::string::npos);
  ServerFixture fixture(listener);

  LineClient client = LineClient::connect_tcp(listener.bound_port());
  client.send("{\"id\":\"tcp\",\"gen\":\"adder8\"}");
  const io::Json r = io::Json::parse(client.recv_line());
  EXPECT_TRUE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("id").as_string(), "tcp");
  client.send("{\"cmd\":\"quit\"}");
  EXPECT_FALSE(client.recv_line().empty());
  fixture.join();
}

TEST(SocketServe, ConcurrentClientsShareTheCache) {
  const fs::path sock = fresh_path("unix_shared.sock");
  serve::SocketListener listener(
      serve::parse_listen_address("unix:" + sock.string()));
  ServerFixture fixture(listener);

  LineClient a = LineClient::connect_unix(sock.string());
  LineClient b = LineClient::connect_unix(sock.string());

  a.send("{\"id\":1,\"gen\":\"adder16\"}");
  const io::Json ra = io::Json::parse(a.recv_line());
  ASSERT_TRUE(ra.at("ok").as_bool());
  EXPECT_FALSE(ra.at("cached").as_bool());

  // Client B asks for the same circuit: a cross-connection cache hit with
  // the identical statistics block.
  b.send("{\"id\":2,\"gen\":\"adder16\"}");
  const io::Json rb = io::Json::parse(b.recv_line());
  ASSERT_TRUE(rb.at("ok").as_bool());
  EXPECT_TRUE(rb.at("cached").as_bool());
  EXPECT_EQ(ra.at("stats").dump(-1), rb.at("stats").dump(-1));

  // Stats sees both connections and a two-tier-less (memory-only) cache.
  b.send("{\"id\":3,\"cmd\":\"stats\"}");
  const io::Json stats = io::Json::parse(b.recv_line());
  EXPECT_EQ(stats.at("serve").at("connections").as_number(), 2);
  const io::Json& cache = stats.at("serve").at("cache");
  EXPECT_EQ(cache.at("tiers").size(), 1u);
  EXPECT_EQ(cache.at("tiers").at(0).at("name").as_string(), "memory");
  EXPECT_GE(stats.at("serve").at("latency").at("t1").at("count").as_number(),
            2);

  b.send("{\"cmd\":\"quit\"}");
  EXPECT_FALSE(b.recv_line().empty());
  // Quit drains client A's session too: its next read reports EOF.
  EXPECT_EQ(a.recv_line(), "");
  fixture.join();
}

TEST(SocketServe, ResponsesMatchStreamTransportByteForByte) {
  // The same script through the stream loop and through a unix socket:
  // identical bytes (the transport must not leak into responses).
  const std::vector<std::string> script = {
      "{\"id\":1,\"gen\":\"adder8\"}",
      "{\"id\":2,\"gen\":\"mul8\",\"config\":\"nphi\"}",
      "{\"id\":3,\"gen\":\"adder8\"}",
      "{\"id\":4,\"bad\":1}",
  };

  std::vector<std::string> stream_lines;
  {
    std::string joined;
    for (const std::string& line : script) joined += line + "\n";
    serve::Server server(fast_config());
    std::istringstream in(joined);
    std::ostringstream out;
    server.serve(in, out);
    std::istringstream split(out.str());
    for (std::string line; std::getline(split, line);) {
      stream_lines.push_back(line);
    }
  }

  const fs::path sock = fresh_path("unix_bytes.sock");
  serve::SocketListener listener(
      serve::parse_listen_address("unix:" + sock.string()));
  ServerFixture fixture(listener);
  LineClient client = LineClient::connect_unix(sock.string());
  std::vector<std::string> socket_lines;
  for (const std::string& line : script) {
    client.send(line);
    socket_lines.push_back(client.recv_line());
  }
  client.send("{\"cmd\":\"quit\"}");
  client.recv_line();
  fixture.join();

  ASSERT_EQ(stream_lines.size(), script.size());
  ASSERT_EQ(socket_lines.size(), script.size());
  for (std::size_t i = 0; i < script.size(); ++i) {
    // "ms" is timing; everything else must agree byte for byte, so split
    // around it rather than reparse.
    const auto strip = [](const std::string& line) {
      const std::size_t ms = line.find("\"ms\":");
      return ms == std::string::npos ? line : line.substr(0, ms);
    };
    EXPECT_EQ(strip(stream_lines[i]), strip(socket_lines[i])) << i;
  }
}

TEST(SocketServe, RestartWithCacheDirServesWarmBitIdenticalHits) {
  // The acceptance scenario: populate through server 1, kill it, start
  // server 2 on the same --cache-dir, and get bit-identical warm hits.
  const fs::path sock = fresh_path("unix_warm.sock");
  const fs::path dir = fresh_path("warm_cache_dir");
  serve::ServeConfig config = fast_config();
  config.cache_dir = dir.string();

  const std::string job = "{\"id\":\"w\",\"gen\":\"adder16\"}";
  std::string cold_line;
  {
    serve::SocketListener listener(
        serve::parse_listen_address("unix:" + sock.string()));
    ServerFixture fixture(listener, config);
    LineClient client = LineClient::connect_unix(sock.string());
    client.send(job);
    cold_line = client.recv_line();
    client.send("{\"cmd\":\"quit\"}");
    client.recv_line();
  }
  const io::Json cold = io::Json::parse(cold_line);
  ASSERT_TRUE(cold.at("ok").as_bool());
  EXPECT_FALSE(cold.at("cached").as_bool());

  serve::SocketListener listener(
      serve::parse_listen_address("unix:" + sock.string()));
  ServerFixture fixture(listener, config);
  LineClient client = LineClient::connect_unix(sock.string());
  client.send(job);
  const std::string warm_line = client.recv_line();
  const io::Json warm = io::Json::parse(warm_line);
  ASSERT_TRUE(warm.at("ok").as_bool());
  EXPECT_TRUE(warm.at("cached").as_bool());
  EXPECT_EQ(warm.at("ms").as_number(), 0.0);  // warm hits cost no flow time
  // Bit-identical modulo the cached/ms fields: compare the stats and
  // input blocks byte for byte.
  EXPECT_EQ(cold.at("stats").dump(-1), warm.at("stats").dump(-1));
  EXPECT_EQ(cold.at("input").dump(-1), warm.at("input").dump(-1));
  EXPECT_EQ(cold.at("cec").as_string(), warm.at("cec").as_string());

  // Stats reports the disk tier, its recovered entries included.
  client.send("{\"cmd\":\"stats\"}");
  const io::Json stats = io::Json::parse(client.recv_line());
  const io::Json& tiers = stats.at("serve").at("cache").at("tiers");
  ASSERT_EQ(tiers.size(), 2u);
  EXPECT_EQ(tiers.at(1).at("name").as_string(), "disk");
  EXPECT_EQ(tiers.at(1).at("recovered_entries").as_number(), 1);
  // The warm hit was served from disk and promoted into memory.
  EXPECT_EQ(tiers.at(1).at("hits").as_number(), 1);
  EXPECT_EQ(tiers.at(0).at("entries").as_number(), 1);

  client.send("{\"cmd\":\"quit\"}");
  client.recv_line();
  fixture.join();
  fs::remove_all(dir);
}

TEST(SocketServe, IdleClientsAreDisconnected) {
  const fs::path sock = fresh_path("unix_idle.sock");
  serve::SocketListener listener(
      serve::parse_listen_address("unix:" + sock.string()),
      /*idle_timeout_ms=*/100);
  ServerFixture fixture(listener);

  LineClient client = LineClient::connect_unix(sock.string());
  // Say nothing: the session times out and closes the connection.
  EXPECT_EQ(client.recv_line(), "");

  // The server is still accepting; a live client works and can quit.
  LineClient live = LineClient::connect_unix(sock.string());
  live.send("{\"cmd\":\"quit\"}");
  EXPECT_FALSE(live.recv_line().empty());
  fixture.join();
}

TEST(SocketServe, ShutdownDrainsWithoutAClientQuit) {
  // SIGTERM path: Transport::shutdown() from outside stops accept and
  // drains the idle session.
  const fs::path sock = fresh_path("unix_drain.sock");
  serve::SocketListener listener(
      serve::parse_listen_address("unix:" + sock.string()));
  ServerFixture fixture(listener);

  LineClient client = LineClient::connect_unix(sock.string());
  client.send("{\"id\":1,\"gen\":\"adder8\"}");
  ASSERT_FALSE(client.recv_line().empty());

  listener.shutdown();
  EXPECT_EQ(client.recv_line(), "");  // session drained, connection closed
  fixture.join();
  EXPECT_EQ(fixture.responses(), 1u);
}

}  // namespace
}  // namespace t1map
