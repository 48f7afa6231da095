// The persistent cache tier: the binary result codec (round-trip,
// corruption and hostile-byte rejection), the log-structured DiskCache
// (reopen warm start, boot-time recovery from torn tails, corrupt and
// hostile log bytes, the format-version gate, one open cache per
// directory), and the TieredCache pair (promotion, write-through, the
// server's key, concurrent two-tier hammering — the TSan CI leg runs this
// suite, the ASan/UBSan leg the hostile-byte tests).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gen/registry.hpp"
#include "serve/disk_cache.hpp"
#include "serve/flow_cache.hpp"
#include "serve/result_codec.hpp"
#include "serve/server.hpp"
#include "serve/tiered_cache.hpp"
#include "serve_test_util.hpp"
#include "t1/flow_engine.hpp"

namespace t1map {
namespace {

using testutil::expect_results_identical;
using testutil::key_of;
using testutil::served_of;

namespace fs = std::filesystem;

/// Fresh per-test cache directory under the system temp dir.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("t1map_" + name);
  fs::remove_all(dir);
  return dir;
}

/// One real flow result (adder8, t1 config, no verification).
const t1::EngineResult& sample_result() {
  static const t1::EngineResult result = [] {
    t1::FlowEngine engine;
    t1::FlowParams params;
    params.verify_rounds = 0;
    t1::EngineResult r = engine.run(gen::make_named("adder8"), params);
    EXPECT_TRUE(r.ok());
    return r;
  }();
  return result;
}

t1::FlowParams fast_params() {
  t1::FlowParams params;
  params.verify_rounds = 0;
  return params;
}

// --- Result codec ------------------------------------------------------------

TEST(ResultCodec, RoundTripsAServedResult) {
  const t1::EngineResult& original = sample_result();
  const std::string bytes = serve::encode_result(served_of(original));
  const serve::ServedResult decoded = serve::decode_result(bytes);
  expect_results_identical(original, decoded, "codec round-trip");
  // The encoding itself is deterministic (same result -> same bytes).
  EXPECT_EQ(bytes, serve::encode_result(decoded));
}

TEST(ResultCodec, RejectsTruncationAndTrailingGarbage) {
  const std::string bytes = serve::encode_result(served_of(sample_result()));
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(serve::decode_result(std::string_view(bytes).substr(0, cut)),
                 ContractError)
        << "truncated at " << cut;
  }
  EXPECT_THROW(serve::decode_result(bytes + '\0'), ContractError);
}

TEST(ResultCodec, RejectsAVerdictOutsideTheFour) {
  serve::ServedResult result = served_of(sample_result());
  for (const char* verdict :
       {"skipped", "equivalent", "not_equivalent", "unknown"}) {
    result.cec = verdict;
    EXPECT_EQ(serve::decode_result(serve::encode_result(result)).cec,
              verdict);
  }
  for (const char* verdict : {"", "Equivalent", "equivalent ", "maybe"}) {
    result.cec = verdict;
    EXPECT_THROW(serve::decode_result(serve::encode_result(result)),
                 ContractError)
        << verdict;
  }
}

// Every truncation of a real payload throws ContractError, and every
// single-byte substitution either decodes to a result with a valid verdict
// or throws it (the ASan/UBSan leg runs this suite, so a stray read fails
// there).
TEST(ResultCodec, SurvivesHostileBytes) {
  const std::string bytes = serve::encode_result(served_of(sample_result()));
  const auto decode_or_reject = [](std::string_view payload,
                                   const std::string& label) {
    try {
      const serve::ServedResult r = serve::decode_result(payload);
      EXPECT_TRUE(r.cec == "skipped" || r.cec == "equivalent" ||
                  r.cec == "not_equivalent" || r.cec == "unknown")
          << label << ": " << r.cec;
    } catch (const ContractError&) {
    }
  };
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(serve::decode_result(std::string_view(bytes).substr(0, cut)),
                 ContractError)
        << "truncated at " << cut;
  }
  std::string mutated = bytes;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int value = 0; value < 256; ++value) {
      mutated[pos] = static_cast<char>(value);
      decode_or_reject(mutated, "byte " + std::to_string(pos) + " = " +
                                    std::to_string(value));
    }
    mutated[pos] = bytes[pos];
  }
}

TEST(ResultCodec, ChecksumCoversEveryByte) {
  const std::string bytes = serve::encode_result(served_of(sample_result()));
  const serve::CacheKey key{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
  const std::uint64_t reference = serve::record_checksum(key, bytes);
  std::string mutated = bytes;
  for (const std::size_t pos : {std::size_t{0}, bytes.size() / 2,
                                bytes.size() - 1}) {
    mutated[pos] ^= 0x01;
    EXPECT_NE(serve::record_checksum(key, mutated), reference) << pos;
    mutated[pos] ^= 0x01;
  }
  // The key is covered too, in both halves and at both ends of each.
  for (const int bit : {0, 31, 63}) {
    const std::uint64_t flip = std::uint64_t{1} << bit;
    EXPECT_NE(serve::record_checksum({key.hi ^ flip, key.lo}, bytes),
              reference)
        << "hi bit " << bit;
    EXPECT_NE(serve::record_checksum({key.hi, key.lo ^ flip}, bytes),
              reference)
        << "lo bit " << bit;
  }
}

// --- DiskCache ---------------------------------------------------------------

TEST(DiskCache, ReopenServesWarmHits) {
  const fs::path dir = fresh_dir("disk_reopen");
  t1::FlowEngine engine;
  const t1::FlowParams params = fast_params();

  const std::vector<std::string> names = {"adder8", "adder12", "mul8"};
  std::vector<serve::CacheKey> keys;
  std::vector<t1::EngineResult> cold;
  for (const std::string& name : names) {
    const Aig aig = gen::make_named(name);
    keys.push_back(key_of(aig, params));
    cold.push_back(engine.run(aig, params));
    ASSERT_TRUE(cold.back().ok()) << name;
  }

  {
    serve::DiskCacheConfig config;
    config.dir = dir.string();
    serve::DiskCache cache(config);
    EXPECT_EQ(cache.recovered_entries(), 0u);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      cache.store(keys[i], served_of(cold[i]));
    }
    EXPECT_EQ(cache.stats().insertions, keys.size());
    // Duplicate store: first write wins, no second record.
    cache.store(keys[0], served_of(cold[0]));
    EXPECT_EQ(cache.stats().insertions, keys.size());
  }  // destructor closes the files — a clean "server restart"

  serve::DiskCacheConfig config;
  config.dir = dir.string();
  serve::DiskCache reopened(config);
  EXPECT_EQ(reopened.recovered_entries(), keys.size());
  EXPECT_EQ(reopened.recovered_truncated_bytes(), 0u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    serve::ServedResult warm;
    ASSERT_TRUE(reopened.lookup(keys[i], warm)) << names[i];
    expect_results_identical(cold[i], warm, names[i]);
  }
  serve::ServedResult out;
  EXPECT_FALSE(reopened.lookup(serve::CacheKey{1, 2}, out));
  fs::remove_all(dir);
}

TEST(DiskCache, RecoversFromTornTailWrites) {
  const fs::path dir = fresh_dir("disk_torn");
  t1::FlowEngine engine;
  const t1::FlowParams params = fast_params();
  const Aig good_aig = gen::make_named("adder8");
  const serve::CacheKey good_key = key_of(good_aig, params);
  const t1::EngineResult good = engine.run(good_aig, params);
  ASSERT_TRUE(good.ok());

  std::uintmax_t records_committed = 0;
  {
    serve::DiskCacheConfig config;
    config.dir = dir.string();
    serve::DiskCache cache(config);
    cache.store(good_key, served_of(good));
    records_committed = fs::file_size(dir / "records.t1c");
  }

  // Simulate a crash mid-store: a half-written record behind the
  // committed one.
  {
    std::ofstream records(dir / "records.t1c",
                          std::ios::binary | std::ios::app);
    records.write("TORNRECORDBYTES", 15);
  }

  serve::DiskCacheConfig config;
  config.dir = dir.string();
  serve::DiskCache recovered(config);
  // The committed record survives; the torn tail is measured and dropped.
  EXPECT_EQ(recovered.recovered_entries(), 1u);
  EXPECT_EQ(recovered.recovered_truncated_bytes(), 15u);
  EXPECT_EQ(fs::file_size(dir / "records.t1c"), records_committed);

  serve::ServedResult warm;
  ASSERT_TRUE(recovered.lookup(good_key, warm));
  expect_results_identical(good, warm, "post-recovery hit");
  // The log is appendable again after truncation.
  const Aig other_aig = gen::make_named("adder12");
  const serve::CacheKey other_key = key_of(other_aig, params);
  const t1::EngineResult other = engine.run(other_aig, params);
  ASSERT_TRUE(other.ok());
  recovered.store(other_key, served_of(other));
  ASSERT_TRUE(recovered.lookup(other_key, warm));
  expect_results_identical(other, warm, "post-recovery store");
  fs::remove_all(dir);
}

TEST(DiskCache, CorruptPayloadIsDroppedNotServed) {
  const fs::path dir = fresh_dir("disk_corrupt");
  t1::FlowEngine engine;
  const t1::FlowParams params = fast_params();
  const Aig aig = gen::make_named("adder8");
  const serve::CacheKey key = key_of(aig, params);
  const t1::EngineResult result = engine.run(aig, params);
  ASSERT_TRUE(result.ok());

  serve::DiskCacheConfig config;
  config.dir = dir.string();
  std::uintmax_t record_bytes = 0;
  {
    serve::DiskCache cache(config);
    cache.store(key, served_of(result));
    record_bytes = fs::file_size(dir / "records.t1c") - 8;
  }
  {
    // Flip one payload byte near the end of the record log.
    std::fstream records(dir / "records.t1c",
                         std::ios::binary | std::ios::in | std::ios::out);
    records.seekg(-1, std::ios::end);
    char byte = 0;
    records.get(byte);
    records.seekp(-1, std::ios::end);
    records.put(static_cast<char>(byte ^ 0x55));
  }

  // The boot replay fails the checksum and truncates the record away.
  serve::DiskCache cache(config);
  EXPECT_EQ(cache.recovered_entries(), 0u);
  EXPECT_EQ(cache.recovered_truncated_bytes(), record_bytes);
  EXPECT_EQ(fs::file_size(dir / "records.t1c"), 8u);
  serve::ServedResult out;
  EXPECT_FALSE(cache.lookup(key, out));
  const serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 0u);
  // The slot is rewritable: a fresh store serves again.
  cache.store(key, served_of(result));
  ASSERT_TRUE(cache.lookup(key, out));
  expect_results_identical(result, out, "post-recovery rewrite");
  fs::remove_all(dir);
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const fs::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Three stored records and the log that holds them.
struct ThreeRecordLog {
  std::vector<serve::CacheKey> keys;
  std::vector<serve::ServedResult> values;
  std::string log;                  // records.t1c as written
  std::vector<std::size_t> ends;    // log offset after each record
};

ThreeRecordLog write_three_records(const fs::path& dir) {
  ThreeRecordLog t;
  t.keys = {{0x1111, 0xAAAA}, {0x2222, 0xBBBB}, {0x3333, 0xCCCC}};
  const char* verdicts[] = {"equivalent", "skipped", "not_equivalent"};
  serve::DiskCacheConfig config;
  config.dir = dir.string();
  serve::DiskCache cache(config);
  for (std::size_t i = 0; i < t.keys.size(); ++i) {
    serve::ServedResult v = served_of(sample_result());
    v.stats.area_jj += static_cast<long>(i);
    v.cec = verdicts[i];
    cache.store(t.keys[i], v);
    t.values.push_back(v);
    t.ends.push_back(static_cast<std::size_t>(cache.stats().bytes));
  }
  t.log = read_file(dir / "records.t1c");
  return t;
}

/// Opens `dir` and checks it recovered exactly the first `prefix` records
/// of `t`, each equal to what was stored, and nothing else.
void expect_recovers_prefix(const fs::path& dir, const ThreeRecordLog& t,
                            std::size_t prefix, const std::string& label) {
  serve::DiskCacheConfig config;
  config.dir = dir.string();
  serve::DiskCache cache(config);
  EXPECT_EQ(cache.recovered_entries(), prefix) << label;
  for (std::size_t i = 0; i < t.keys.size(); ++i) {
    serve::ServedResult out;
    const bool hit = cache.lookup(t.keys[i], out);
    EXPECT_EQ(hit, i < prefix) << label << ", record " << i;
    if (hit) {
      EXPECT_EQ(serve::encode_result(out), serve::encode_result(t.values[i]))
          << label << ", record " << i;
    }
  }
  const std::size_t kept = prefix == 0 ? 8 : t.ends[prefix - 1];
  EXPECT_EQ(fs::file_size(dir / "records.t1c"), kept) << label;
}

// Every truncation of a 3-record log and every byte XOR'd with 0xFF: the
// open throws ContractError (header bytes) or recovers exactly the records
// before the damage.  The ASan/UBSan leg runs this suite, so a stray read
// of the hostile log fails there.
TEST(DiskCache, SurvivesHostileLogBytes) {
  const fs::path dir = fresh_dir("disk_hostile");
  const ThreeRecordLog t = write_three_records(dir);
  ASSERT_EQ(t.log.size(), t.ends.back());
  const auto records_before = [&](std::size_t offset) {
    std::size_t n = 0;
    while (n < t.ends.size() && t.ends[n] <= offset) ++n;
    return n;
  };

  for (std::size_t cut = 0; cut < t.log.size(); ++cut) {
    write_file(dir / "records.t1c", std::string_view(t.log).substr(0, cut));
    // A log cut inside its header is restamped as an empty cache.
    expect_recovers_prefix(dir, t, cut < 8 ? 0 : records_before(cut),
                           "cut at " + std::to_string(cut));
  }

  serve::DiskCacheConfig config;
  config.dir = dir.string();
  for (std::size_t pos = 0; pos < t.log.size(); ++pos) {
    std::string mutated = t.log;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0xFF);
    write_file(dir / "records.t1c", mutated);
    const std::string label = "byte " + std::to_string(pos) + " ^ 0xFF";
    if (pos < 8) {
      EXPECT_THROW(serve::DiskCache{config}, ContractError) << label;
    } else {
      expect_recovers_prefix(dir, t, records_before(pos), label);
    }
  }
  fs::remove_all(dir);
}

// The checksum covers the key: a record whose header key byte flipped is
// not recovered, under either key.
TEST(DiskCache, FlippedKeyByteIsNotRecovered) {
  const fs::path dir = fresh_dir("disk_key_flip");
  const ThreeRecordLog t = write_three_records(dir);
  std::string mutated = t.log;
  const std::size_t key_hi_byte = 8 + 8;  // log header, magic, length
  mutated[key_hi_byte] = static_cast<char>(mutated[key_hi_byte] ^ 0x01);
  write_file(dir / "records.t1c", mutated);

  serve::DiskCacheConfig config;
  config.dir = dir.string();
  serve::DiskCache cache(config);
  EXPECT_EQ(cache.recovered_entries(), 0u);
  serve::ServedResult out;
  EXPECT_FALSE(cache.lookup(t.keys[0], out));
  EXPECT_FALSE(cache.lookup({t.keys[0].hi ^ 0x01, t.keys[0].lo}, out));
  fs::remove_all(dir);
}

TEST(DiskCache, RejectsForeignAndIncompatibleFiles) {
  const fs::path dir = fresh_dir("disk_foreign");
  fs::create_directories(dir);
  {
    std::ofstream records(dir / "records.t1c", std::ios::binary);
    records << "definitely not a cache file";
  }
  serve::DiskCacheConfig config;
  config.dir = dir.string();
  EXPECT_THROW(serve::DiskCache{config}, ContractError);
  fs::remove_all(dir);
}

// Earlier builds stamped version 1 (whole flow results) or version 2
// (payload-only checksums plus an index file); such a directory is refused
// at open with a hint to remove it.
TEST(DiskCache, RejectsAnOlderFormatVersion) {
  for (const char version : {1, 2}) {
    const fs::path dir = fresh_dir("disk_version");
    fs::create_directories(dir);
    {
      std::ofstream records(dir / "records.t1c", std::ios::binary);
      const char header[8] = {'R', 'C', '1', 'T', version, 0, 0, 0};
      records.write(header, sizeof header);
    }
    serve::DiskCacheConfig config;
    config.dir = dir.string();
    try {
      serve::DiskCache cache(config);
      ADD_FAILURE() << "a version-" << int{version}
                    << " cache directory opened";
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find("remove the directory"),
                std::string::npos)
          << e.what();
    }
    fs::remove_all(dir);
  }
}

TEST(DiskCache, SecondOpenOfALockedDirectoryThrows) {
  const fs::path dir = fresh_dir("disk_lock");
  serve::DiskCacheConfig config;
  config.dir = dir.string();
  {
    serve::DiskCache first(config);
    try {
      serve::DiskCache second(config);
      ADD_FAILURE() << "second DiskCache on a locked directory opened";
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find(dir.string()), std::string::npos)
          << e.what();
    }
  }
  // The first cache's destructor released the lock.
  EXPECT_NO_THROW(serve::DiskCache{config});
  fs::remove_all(dir);
}

// --- TieredCache -------------------------------------------------------------

TEST(TieredCache, PromotesDiskHitsIntoMemory) {
  const fs::path dir = fresh_dir("tier_promote");
  t1::FlowEngine engine;
  const t1::FlowParams params = fast_params();
  const Aig aig = gen::make_named("adder8");
  const serve::CacheKey key = key_of(aig, params);
  const t1::EngineResult cold = engine.run(aig, params);
  ASSERT_TRUE(cold.ok());

  // Seed only the disk tier (a previous server's run).
  {
    serve::DiskCacheConfig config;
    config.dir = dir.string();
    serve::DiskCache seeder(config);
    seeder.store(key, served_of(cold));
  }

  serve::TieredCache tiers(serve::kDefaultCacheBytes, dir.string());
  ASSERT_NE(tiers.disk(), nullptr);
  const serve::FlowCache& memory = tiers.memory();

  // First lookup: memory misses, disk hits, result promoted to memory.
  serve::ServedResult out;
  ASSERT_TRUE(tiers.lookup(key, out));
  expect_results_identical(cold, out, "disk hit");
  EXPECT_EQ(memory.stats().entries, 1u);

  // Second lookup is served by the memory tier (disk hit count frozen).
  const std::uint64_t disk_hits = tiers.disk()->stats().hits;
  ASSERT_TRUE(tiers.lookup(key, out));
  EXPECT_EQ(tiers.disk()->stats().hits, disk_hits);
  EXPECT_EQ(memory.stats().hits, 1u);
  EXPECT_EQ(tiers.stats().hits, 2u);  // composition: both were tiered hits

  // A miss everywhere is one tiered miss.
  EXPECT_FALSE(tiers.lookup(serve::CacheKey{9, 9}, out));
  EXPECT_EQ(tiers.stats().misses, 1u);
  fs::remove_all(dir);
}

TEST(TieredCache, ServerAndKeyOfAgreeOnTheKey) {
  // A server job's result must sit under the key the test helper derives
  // through `serve::cache_key`: both fold in the pipeline the job ran.
  const fs::path dir = fresh_dir("tier_server_key");
  {
    serve::ServeConfig config;
    config.defaults.verify_rounds = 0;
    config.defaults.cec = false;
    config.cache_dir = dir.string();
    serve::Server server(config);
    std::istringstream in("{\"gen\":\"adder8\"}\n");
    std::ostringstream out;
    server.serve(in, out);
  }
  serve::DiskCacheConfig config;
  config.dir = dir.string();
  serve::DiskCache disk(config);
  serve::ServedResult out;
  EXPECT_TRUE(disk.lookup(key_of(gen::make_named("adder8"), fast_params()),
                          out));
  fs::remove_all(dir);
}

TEST(TieredCache, WritesThroughToEveryTier) {
  const fs::path dir = fresh_dir("tier_write");
  t1::FlowEngine engine;
  const t1::FlowParams params = fast_params();
  const Aig aig = gen::make_named("adder8");
  const serve::CacheKey key = key_of(aig, params);
  const t1::EngineResult cold = engine.run(aig, params);
  ASSERT_TRUE(cold.ok());

  serve::TieredCache tiers(serve::kDefaultCacheBytes, dir.string());

  tiers.store(key, served_of(cold));
  EXPECT_EQ(tiers.memory().stats().entries, 1u);
  EXPECT_EQ(tiers.disk()->stats().entries, 1u);
  EXPECT_EQ(tiers.stats().insertions, 1u);
  fs::remove_all(dir);
}

TEST(TieredCache, ConcurrentTwoTierHammering) {
  // 8 threads hammer lookup+store across both tiers; the TSan CI leg runs
  // this test to prove the composed locking sound.
  const fs::path dir = fresh_dir("tier_hammer");
  t1::FlowEngine engine;
  const t1::FlowParams params = fast_params();
  const std::vector<std::string> names = {"adder8", "adder10", "adder12",
                                          "adder14"};
  std::vector<serve::CacheKey> keys;
  std::vector<serve::ServedResult> results;
  for (const std::string& name : names) {
    const Aig aig = gen::make_named(name);
    keys.push_back(key_of(aig, params));
    const t1::EngineResult result = engine.run(aig, params);
    ASSERT_TRUE(result.ok());
    results.push_back(served_of(result));
  }

  serve::DiskCacheConfig config;
  config.dir = dir.string();
  auto tiers = std::make_unique<serve::TieredCache>(serve::kDefaultCacheBytes,
                                                     dir.string());

  constexpr int kThreads = 8;
  constexpr int kIters = 100;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t j = static_cast<std::size_t>(t + i) % keys.size();
        serve::ServedResult out;
        if (tiers->lookup(keys[j], out)) {
          if (out.stats.area_jj != results[j].stats.area_jj) {
            ++mismatches[t];
          }
        } else {
          tiers->store(keys[j], results[j]);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const int m : mismatches) EXPECT_EQ(m, 0);

  const serve::CacheStats c = tiers->stats();
  EXPECT_EQ(c.hits + c.misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_GT(c.hits, 0u);
  EXPECT_LE(tiers->disk()->stats().entries, names.size());

  // Everything the hammer stored is recoverable by a fresh disk tier, once
  // the hammered one has released the directory.
  const std::uint64_t stored = tiers->disk()->stats().entries;
  tiers.reset();
  serve::DiskCache reopened(config);
  EXPECT_EQ(reopened.recovered_entries(), stored);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace t1map
