/// \file disk_cache.hpp
/// \brief Disk-backed, log-structured store of served results — the
/// persistent second cache tier behind `--cache-dir`.
///
/// The cache directory holds one data file plus an empty `lock` file whose
/// exclusive `flock` the open cache holds:
///
///   records.t1c   append-only record log.  8-byte header (magic,
///                 `kResultCodecVersion`), then back-to-back records:
///                 [magic u32][payload_len u32][key.hi u64][key.lo u64]
///                 [checksum u64][payload bytes]
///                 where the payload is `encode_result` output and the
///                 checksum is `record_checksum` over key and payload.
///
/// Boot replays the log once.  A record is accepted when its magic, its
/// length (it must fit in the file), its checksum and its payload decode
/// all hold; accepted records fill an in-memory key -> `ServedResult` map
/// (the first record of a key wins).  At the first record that fails —
/// the torn tail of a crash, or a corrupt record anywhere — the log is
/// truncated, so a bad byte costs a recompute of the records behind it,
/// never a wrong answer.  After boot the file is only appended to: a
/// lookup is a map find, a store appends one record.
///
/// Keys are platform-stable `CacheKey`s (cache_key.hpp) and payloads are
/// `ServedResult`s, so a cache directory written by one host warm-starts
/// any other build of the same format version.  A directory of another
/// version is refused at open and must be removed.
///
/// Thread safety: one mutex guards the map, the counters and the append
/// path.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "serve/cache_key.hpp"

namespace t1map::serve {

struct DiskCacheConfig {
  /// Cache directory; created (with parents) when missing.
  std::string dir;
  /// fsync the log after every store.  Off by default: the log is a
  /// cache, and boot already drops a torn tail.
  bool fsync_stores = false;
};

class DiskCache {
 public:
  /// Opens (or creates) the log, locks the directory and replays the log.
  /// Throws `ContractError` when the directory is unusable, holds an
  /// incompatible cache, or is locked by another `DiskCache` (in this
  /// process or another); the destructor releases the lock.
  explicit DiskCache(DiskCacheConfig config);
  ~DiskCache();

  DiskCache(const DiskCache&) = delete;
  DiskCache& operator=(const DiskCache&) = delete;

  /// Fills `out` and returns true when `key` is stored.
  bool lookup(const CacheKey& key, ServedResult& out);
  /// Appends `result` unless `key` is already stored (first write wins).
  void store(const CacheKey& key, const ServedResult& result);
  CacheStats stats() const;

  /// Entries the boot replay accepted.
  std::uint64_t recovered_entries() const { return recovered_; }
  /// Log bytes the boot replay truncated (a torn or corrupt tail).
  std::uint64_t recovered_truncated_bytes() const { return truncated_; }

 private:
  void lock_directory();
  void replay_log();
  void close_files();

  DiskCacheConfig config_;
  std::string records_path_;
  int records_fd_ = -1;
  int lock_fd_ = -1;  // holds flock(LOCK_EX) on <dir>/lock
  std::uint64_t recovered_ = 0;  // set once, by the boot replay
  std::uint64_t truncated_ = 0;

  mutable std::mutex mu_;  // everything below
  std::unordered_map<CacheKey, ServedResult, CacheKeyHash> entries_;
  std::uint64_t records_size_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
};

}  // namespace t1map::serve
