#include "tt/truth_table.hpp"

#include <algorithm>

namespace t1map {
namespace {

/// Bit pattern of the projection onto variable v in a 6-variable space,
/// truncated by the caller's mask.  kProjection[v] has bit i set iff bit v of
/// i is set.
constexpr std::uint64_t kProjection[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull,
};

}  // namespace

Tt Tt::var(int nvars, int v) {
  T1MAP_REQUIRE(v >= 0 && v < nvars, "projection variable out of range");
  return Tt(nvars, kProjection[v]);
}

bool Tt::depends_on(int v) const { return cofactor0(v) != cofactor1(v); }

std::uint32_t Tt::support_mask() const {
  std::uint32_t mask = 0;
  for (int v = 0; v < nvars_; ++v) {
    if (depends_on(v)) mask |= (1u << v);
  }
  return mask;
}

Tt Tt::cofactor0(int v) const {
  T1MAP_REQUIRE(v >= 0 && v < nvars_, "cofactor variable out of range");
  const std::uint64_t lo = bits_ & ~kProjection[v];
  return Tt(nvars_, lo | (lo << (1u << v)));
}

Tt Tt::cofactor1(int v) const {
  T1MAP_REQUIRE(v >= 0 && v < nvars_, "cofactor variable out of range");
  const std::uint64_t hi = bits_ & kProjection[v];
  return Tt(nvars_, hi | (hi >> (1u << v)));
}

Tt Tt::flip_var(int v) const {
  T1MAP_REQUIRE(v >= 0 && v < nvars_, "flip variable out of range");
  const unsigned shift = 1u << v;
  const std::uint64_t hi = bits_ & kProjection[v];
  const std::uint64_t lo = bits_ & ~kProjection[v];
  return Tt(nvars_, (hi >> shift) | (lo << shift));
}

Tt Tt::apply_polarity(std::uint32_t polarity_mask) const {
  Tt result = *this;
  for (int v = 0; v < nvars_; ++v) {
    if (polarity_mask & (1u << v)) result = result.flip_var(v);
  }
  return result;
}

Tt Tt::swap_vars(int a, int b) const {
  T1MAP_REQUIRE(a >= 0 && a < nvars_ && b >= 0 && b < nvars_,
                "swap variable out of range");
  if (a == b) return *this;
  Tt result(nvars_);
  for (std::uint64_t i = 0; i < num_bits(); ++i) {
    std::uint64_t j = i;
    const bool bit_a = (i >> a) & 1u;
    const bool bit_b = (i >> b) & 1u;
    j &= ~((1ull << a) | (1ull << b));
    if (bit_a) j |= (1ull << b);
    if (bit_b) j |= (1ull << a);
    if (bit(i)) result.set_bit(j, true);
  }
  return result;
}

Tt Tt::remap(int new_nvars, std::span<const int> where) const {
  T1MAP_REQUIRE(static_cast<int>(where.size()) == nvars_,
                "remap needs one target per variable");
  Tt result(new_nvars);
  for (std::uint64_t i = 0; i < result.num_bits(); ++i) {
    std::uint64_t src = 0;
    for (int v = 0; v < nvars_; ++v) {
      T1MAP_REQUIRE(where[v] >= 0 && where[v] < new_nvars,
                    "remap target out of range");
      if ((i >> where[v]) & 1u) src |= (1ull << v);
    }
    if (bit(src)) result.set_bit(i, true);
  }
  return result;
}

std::string Tt::to_string() const {
  std::string s;
  s.reserve(num_bits());
  for (std::uint64_t i = num_bits(); i-- > 0;) {
    s.push_back(bit(i) ? '1' : '0');
  }
  return s;
}

Tt compose(const Tt& local, std::span<const Tt> fanins) {
  T1MAP_REQUIRE(static_cast<std::size_t>(local.num_vars()) == fanins.size(),
                "compose: local arity must match fanin count");
  if (fanins.empty()) return local;  // zero-variable constant
  const int nvars = fanins[0].num_vars();
  for (const Tt& f : fanins) {
    T1MAP_REQUIRE(f.num_vars() == nvars, "compose: fanin arity mismatch");
  }
  return detail::compose_unchecked(local, fanins, nvars);
}

Tt expand_to_leaves(const Tt& tt, std::span<const std::uint32_t> from,
                    std::span<const std::uint32_t> to) {
  T1MAP_REQUIRE(static_cast<int>(from.size()) == tt.num_vars(),
                "expand: leaf list must match arity");
  T1MAP_REQUIRE(static_cast<int>(to.size()) <= Tt::kMaxVars,
                "expand: target leaf list too large");
  // Allocation-free: both lists are sorted, so one merged walk resolves the
  // variable positions.  This runs per candidate cut in enumeration.
  int where[Tt::kMaxVars];
  std::size_t j = 0;
  for (std::size_t v = 0; v < from.size(); ++v) {
    while (j < to.size() && to[j] < from[v]) ++j;
    T1MAP_REQUIRE(j < to.size() && to[j] == from[v],
                  "expand: source leaf missing from target leaf set");
    where[v] = static_cast<int>(j++);
  }
  const int nto = static_cast<int>(to.size());
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < (1ull << nto); ++i) {
    std::uint64_t src = 0;
    for (std::size_t v = 0; v < from.size(); ++v) {
      src |= ((i >> where[v]) & 1u) << v;
    }
    out |= static_cast<std::uint64_t>(tt.bit(src)) << i;
  }
  return Tt(nto, out);
}

namespace tts {

Tt and2() { return Tt(2, 0b1000); }
Tt or2() { return Tt(2, 0b1110); }
Tt xor2() { return Tt(2, 0b0110); }
Tt and3() { return Tt(3, 0x80); }
Tt or3() { return Tt(3, 0xFE); }
Tt xor3() { return Tt(3, 0x96); }
Tt maj3() { return Tt(3, 0xE8); }

}  // namespace tts
}  // namespace t1map
