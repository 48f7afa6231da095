#include "serve/aig_hash.hpp"

#include <cstdio>
#include <span>
#include <utility>

#include "common/hash_mix.hpp"

namespace t1map::serve {

namespace {

// Domain-separation seeds: arbitrary odd constants.  They (and `mix64` in
// common/hash_mix.hpp) are part of the persisted cache-key format and must
// never change.
constexpr std::uint64_t kConstSeed = 0xA2B5C8D1E4F70913ull;
constexpr std::uint64_t kPiSeed = 0x9D8C7B6A59483726ull;
constexpr std::uint64_t kAndSeed = 0x1F2E3D4C5B6A7988ull;
constexpr std::uint64_t kNegSeed = 0x7157A1B2C3D4E5F6ull;
constexpr std::uint64_t kHiLane = 0x452821E638D01377ull;
constexpr std::uint64_t kLoLane = 0xBE5466CF34E90C6Cull;

std::uint64_t combine(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ mix64(b));
}

/// Digest of a literal: the driver's node hash, remixed when complemented.
std::uint64_t lit_digest(Lit l, std::span<const std::uint64_t> node_hash) {
  const std::uint64_t h = node_hash[lit_node(l)];
  return lit_is_complemented(l) ? combine(kNegSeed, h) : h;
}

/// Fills `out` with the hash of every node's fan-in cone.  One forward
/// sweep: node ids are a topological order.
void node_hashes(const Aig& aig, std::vector<std::uint64_t>& out) {
  out.assign(aig.num_nodes(), 0);
  out[0] = mix64(kConstSeed);

  // PI hashes fold in the PI *index* (not the node id), so the digest sees
  // the input interface, not the numbering.
  const auto pis = aig.pis();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    out[pis[i]] = combine(kPiSeed, static_cast<std::uint64_t>(i));
  }

  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    if (!aig.is_and(n)) continue;
    std::uint64_t a = lit_digest(aig.fanin0(n), out);
    std::uint64_t b = lit_digest(aig.fanin1(n), out);
    // AND is commutative: order operands by hash value so operand order at
    // construction time cannot leak into the digest.
    if (a > b) std::swap(a, b);
    out[n] = combine(kAndSeed, combine(a, b));
  }
}

}  // namespace

std::string Digest::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf, 32);
}

Digest AigHasher::hash(const Aig& aig) {
  node_hashes(aig, node_hash_);

  // Two independent absorption lanes make the final digest genuinely
  // 128-bit; the PO sequence (order and polarity) is the circuit's output
  // interface and is absorbed literally.
  Digest d{kHiLane, kLoLane};
  const auto absorb = [&d](std::uint64_t x) {
    d.hi = mix64(d.hi ^ x);
    d.lo = mix64(d.lo + (x | 1) * 0xFF51AFD7ED558CCDull);
  };
  absorb(aig.num_pis());
  absorb(aig.num_pos());
  for (const Lit po : aig.pos()) {
    absorb(lit_digest(po, node_hash_));
  }
  return d;
}

Digest hash_aig(const Aig& aig) {
  // One hasher per thread: batched serve dispatch hashes every request on
  // the session thread, and reallocating the node array per call showed up
  // in exactly that loop.
  thread_local AigHasher hasher;
  return hasher.hash(aig);
}

}  // namespace t1map::serve
