// Boot and lookup cost of the serve cache's disk tier (`serve::DiskCache`)
// at a given log size.  Writes RECORDS synthetic Table-I records under
// distinct keys into a fresh cache directory, then REPS times: reopens the
// directory (the boot: lock, header check, log recovery) and looks every
// key up once in shuffled order.  Prints the min and median of both, and
// the heap an open cache holds per entry (glibc's `mallinfo2`).
//
// Usage: bench_disk_cache [RECORDS=42] [REPS=15]
//   42 is the log the perfbench `serve` workload leaves; 100000 is a
//   10 MB log.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "common/hash_mix.hpp"
#include "serve/disk_cache.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Heap bytes in use (small chunks plus mmap'd blocks).
std::size_t heap_in_use() {
  const struct mallinfo2 m = ::mallinfo2();
  return m.uordblks + m.hblkhd;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace t1map;
  const long records = argc > 1 ? std::atol(argv[1]) : 42;
  const int reps = argc > 2 ? std::atoi(argv[2]) : 15;
  if (records <= 0 || reps <= 0) {
    std::fprintf(stderr, "usage: bench_disk_cache [RECORDS>0] [REPS>0]\n");
    return 2;
  }
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("t1map_bench_disk_cache_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  serve::DiskCacheConfig config;
  config.dir = dir.string();

  std::vector<serve::CacheKey> keys;
  {
    serve::DiskCache cache(config);
    for (long i = 0; i < records; ++i) {
      const auto n = static_cast<std::uint64_t>(i);
      keys.push_back({mix64(2 * n + 1), mix64(2 * n + 2)});
      serve::ServedResult r;
      r.stats.dffs = 100 + i;
      r.stats.area_jj = 1000 + i;
      r.stats.depth_cycles = 5;
      r.cec = i % 2 == 0 ? "equivalent" : "skipped";
      cache.store(keys.back(), r);
    }
  }
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(1));

  std::vector<double> boot_ms, lookup_ms;
  double heap_per_entry = 0.0;
  long hits = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const std::size_t heap0 = heap_in_use();
    const Clock::time_point t0 = Clock::now();
    serve::DiskCache cache(config);
    boot_ms.push_back(ms_since(t0));
    heap_per_entry = static_cast<double>(heap_in_use() - heap0) /
                     static_cast<double>(records);
    const Clock::time_point t1 = Clock::now();
    serve::ServedResult out;
    for (const serve::CacheKey& key : keys) hits += cache.lookup(key, out);
    lookup_ms.push_back(ms_since(t1));
  }
  fs::remove_all(dir);
  if (hits != records * reps) {
    std::fprintf(stderr, "bench_disk_cache: %ld of %ld lookups hit\n", hits,
                 records * reps);
    return 1;
  }

  const double per_lookup_us = 1e3 / static_cast<double>(records);
  std::printf("records %ld, reps %d\n", records, reps);
  std::printf("boot        min %.3f ms  median %.3f ms\n",
              *std::min_element(boot_ms.begin(), boot_ms.end()),
              median(boot_ms));
  std::printf("lookups     min %.3f ms  median %.3f ms total "
              "(min %.3f us, median %.3f us each)\n",
              *std::min_element(lookup_ms.begin(), lookup_ms.end()),
              median(lookup_ms),
              *std::min_element(lookup_ms.begin(), lookup_ms.end()) *
                  per_lookup_us,
              median(lookup_ms) * per_lookup_us);
  std::printf("open cache  %.1f heap bytes per entry\n", heap_per_entry);
  return 0;
}
