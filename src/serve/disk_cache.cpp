#include "serve/disk_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string_view>
#include <utility>

#include "common/require.hpp"
#include "serve/result_codec.hpp"

namespace t1map::serve {

namespace {

constexpr std::uint32_t kRecordsMagic = 0x54314352;  // "T1CR"
constexpr std::uint64_t kHeaderBytes = 8;            // magic + version
constexpr std::uint32_t kRecordMagic = 0x52454352;   // "RECR"
constexpr std::uint64_t kRecordHeaderBytes = 32;

void put_u32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

void put_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

/// Full write at an offset; EINTR-safe.  Throws on I/O failure — a store
/// that cannot land must not leave a half-committed record *believed*
/// committed, and the caller treats the exception as fatal for the tier.
void pwrite_all(int fd, const char* data, std::size_t len,
                std::uint64_t offset) {
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, data, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      T1MAP_REQUIRE(false, std::string("disk cache write failed: ") +
                               std::strerror(errno));
    }
    data += n;
    len -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
}

/// Full read at an offset; returns false on short read or I/O error.
bool pread_all(int fd, char* data, std::size_t len, std::uint64_t offset) {
  while (len > 0) {
    const ssize_t n = ::pread(fd, data, len, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

/// Opens (creating if needed) the record log and validates or writes its
/// 8-byte header.  Returns the fd; `size` receives the file size after any
/// header fixup.
int open_log(const std::string& path, std::uint64_t& size) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  T1MAP_REQUIRE(fd >= 0, "cannot open cache file: " + path + ": " +
                             std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    T1MAP_REQUIRE(false, "cannot stat cache file: " + path);
  }
  size = static_cast<std::uint64_t>(st.st_size);
  if (size < kHeaderBytes) {
    // Fresh (or a file that died before its header landed): restamp.
    char header[kHeaderBytes];
    put_u32(header, kRecordsMagic);
    put_u32(header + 4, kResultCodecVersion);
    if (::ftruncate(fd, 0) != 0) { /* best effort; pwrite below rules */
    }
    pwrite_all(fd, header, sizeof header, 0);
    size = kHeaderBytes;
    return fd;
  }
  char header[kHeaderBytes];
  if (!pread_all(fd, header, sizeof header, 0) ||
      get_u32(header) != kRecordsMagic) {
    ::close(fd);
    T1MAP_REQUIRE(false, path + " is not a t1map cache file");
  }
  if (get_u32(header + 4) != kResultCodecVersion) {
    ::close(fd);
    T1MAP_REQUIRE(false, path + " was written by an incompatible cache "
                             "version; remove the directory to rebuild");
  }
  return fd;
}

}  // namespace

DiskCache::DiskCache(DiskCacheConfig config) : config_(std::move(config)) {
  T1MAP_REQUIRE(!config_.dir.empty(), "disk cache needs a directory");
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  T1MAP_REQUIRE(!ec, "cannot create cache directory " + config_.dir + ": " +
                         ec.message());
  records_path_ = config_.dir + "/records.t1c";
  lock_directory();
  try {
    records_fd_ = open_log(records_path_, records_size_);
    replay_log();
  } catch (...) {
    close_files();
    throw;
  }
}

DiskCache::~DiskCache() { close_files(); }

void DiskCache::lock_directory() {
  // One writer per directory: two caches appending to one log would
  // interleave records.  An flock lives as long as its open file
  // description, so a crashed owner releases it with its process.
  const std::string lock_path = config_.dir + "/lock";
  lock_fd_ = ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  T1MAP_REQUIRE(lock_fd_ >= 0, "cannot open cache lock file " + lock_path +
                                   ": " + std::strerror(errno));
  if (::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    ::close(lock_fd_);
    lock_fd_ = -1;
    const bool held_elsewhere = err == EWOULDBLOCK;
    T1MAP_REQUIRE(!held_elsewhere,
                  "cache directory " + config_.dir +
                      " is in use by another cache (lock held on " +
                      lock_path + ")");
    T1MAP_REQUIRE(false, "cannot lock cache directory " + config_.dir +
                             ": " + std::strerror(err));
  }
}

void DiskCache::close_files() {
  if (records_fd_ >= 0) ::close(records_fd_);
  if (lock_fd_ >= 0) ::close(lock_fd_);  // releases the flock
  records_fd_ = lock_fd_ = -1;
}

void DiskCache::replay_log() {
  std::string log(records_size_ - kHeaderBytes, '\0');
  T1MAP_REQUIRE(pread_all(records_fd_, log.data(), log.size(), kHeaderBytes),
                "cannot read cache file: " + records_path_);
  // Accept records up to the first one that fails a check.  Subtraction
  // form throughout: immune to overflow from a garbage length.
  std::size_t pos = 0;
  while (log.size() - pos >= kRecordHeaderBytes) {
    const char* h = log.data() + pos;
    const std::uint32_t len = get_u32(h + 4);
    if (get_u32(h) != kRecordMagic ||
        log.size() - pos - kRecordHeaderBytes < len) {
      break;
    }
    const CacheKey key{get_u64(h + 8), get_u64(h + 16)};
    const std::string_view payload(h + kRecordHeaderBytes, len);
    if (record_checksum(key, payload) != get_u64(h + 24)) break;
    ServedResult result;
    try {
      result = decode_result(payload);
    } catch (const ContractError&) {
      break;
    }
    entries_.try_emplace(key, std::move(result));
    pos += kRecordHeaderBytes + len;
  }
  recovered_ = entries_.size();

  if (pos < log.size()) {
    truncated_ = log.size() - pos;
    records_size_ = kHeaderBytes + pos;
    if (::ftruncate(records_fd_, static_cast<off_t>(records_size_)) != 0) {
      // Best effort: the next store overwrites from `records_size_` either
      // way, and the next boot drops whatever garbage is left behind it.
    }
  }
}

bool DiskCache::lookup(const CacheKey& key, ServedResult& out) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  out = it->second;
  return true;
}

void DiskCache::store(const CacheKey& key, const ServedResult& result) {
  // Serialize outside the lock; append under it.
  const std::string payload = encode_result(result);
  std::string record(kRecordHeaderBytes, '\0');
  put_u32(record.data(), kRecordMagic);
  put_u32(record.data() + 4, static_cast<std::uint32_t>(payload.size()));
  put_u64(record.data() + 8, key.hi);
  put_u64(record.data() + 16, key.lo);
  put_u64(record.data() + 24, record_checksum(key, payload));
  record += payload;

  const std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(key) != 0) return;  // first write wins; results agree
  pwrite_all(records_fd_, record.data(), record.size(), records_size_);
  if (config_.fsync_stores) ::fsync(records_fd_);
  records_size_ += record.size();
  entries_.emplace(key, result);
  ++insertions_;
}

CacheStats DiskCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  CacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.entries = entries_.size();
  s.bytes = records_size_;
  return s;
}

}  // namespace t1map::serve
