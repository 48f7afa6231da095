#include "serve/result_codec.hpp"

#include "common/hash_mix.hpp"
#include "common/require.hpp"

namespace t1map::serve {

namespace {

// --- Little-endian primitives ------------------------------------------------

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) put_u8(out, (v >> (8 * i)) & 0xFF);
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) put_u8(out, (v >> (8 * i)) & 0xFF);
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_string(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked sequential reader; every underrun is a ContractError so
/// truncated payloads fail as corrupt records, not as UB.
class Reader {
 public:
  explicit Reader(std::string_view bytes)
      : p_(bytes.data()), n_(bytes.size()) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(p_[pos_++]);
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    }
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str() {
    const std::uint32_t len = u32();
    need(len);
    std::string s(p_ + pos_, len);
    pos_ += len;
    return s;
  }
  bool done() const { return pos_ == n_; }

 private:
  void need(std::size_t k) const {
    T1MAP_REQUIRE(n_ - pos_ >= k, "result payload truncated");
  }
  const char* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string encode_result(const ServedResult& result) {
  std::string out;
  const t1::FlowStats& s = result.stats;
  put_i64(out, s.dffs);
  put_i64(out, s.area_jj);
  put_i32(out, s.depth_cycles);
  put_i32(out, s.t1_found);
  put_i32(out, s.t1_used);
  put_i64(out, s.t1_cores);
  put_i64(out, s.logic_cells);
  put_i64(out, s.splitters);
  put_i32(out, s.num_stages);
  put_string(out, result.cec);
  return out;
}

ServedResult decode_result(std::string_view bytes) {
  Reader r(bytes);
  ServedResult result;
  t1::FlowStats& s = result.stats;
  s.dffs = r.i64();
  s.area_jj = r.i64();
  s.depth_cycles = r.i32();
  s.t1_found = r.i32();
  s.t1_used = r.i32();
  s.t1_cores = r.i64();
  s.logic_cells = r.i64();
  s.splitters = r.i64();
  s.num_stages = r.i32();
  result.cec = r.str();
  T1MAP_REQUIRE(result.cec == "skipped" || result.cec == "equivalent" ||
                    result.cec == "not_equivalent" || result.cec == "unknown",
                "bad CEC verdict in payload");
  T1MAP_REQUIRE(r.done(), "trailing bytes after result payload");
  return result;
}

std::uint64_t record_checksum(const CacheKey& key, std::string_view payload) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  const auto feed = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;  // FNV-1a prime
  };
  for (const std::uint64_t half : {key.hi, key.lo}) {
    for (int i = 0; i < 8; ++i) feed((half >> (8 * i)) & 0xFF);
  }
  for (const char c : payload) feed(static_cast<std::uint8_t>(c));
  return mix64(h);
}

}  // namespace t1map::serve
