/// \file aig_hash.hpp
/// \brief Canonical 128-bit structural hashing of AIGs — the cache-key
/// substrate of the serving layer.
///
/// The digest is *structural*: every node's hash is computed bottom-up from
/// its fanin hashes only, so two `Aig`s describing the same graph hash
/// identically even when their node ids differ (e.g. the same circuit built
/// in a different creation order).  It is
///   * input-order aware — a PI's hash folds in its PI index, so permuting
///     which input feeds which pin changes the digest;
///   * polarity aware — complemented literals hash differently from plain
///     ones, on fanins and on POs alike;
///   * commutation insensitive for AND operands — `AND(a,b)` and `AND(b,a)`
///     are the same gate and hash the same (operand hashes are combined in
///     sorted order);
///   * platform stable — pure `uint64` arithmetic, no `std::hash`, no
///     pointers, no endianness dependence.
///
/// Collisions are possible in principle (it is a hash); 128 bits keep the
/// probability negligible for any realistic cache population.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aig/aig.hpp"

namespace t1map::serve {

/// A 128-bit structural digest.
struct Digest {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Digest&, const Digest&) = default;

  /// 32 lowercase hex characters, hi half first.
  std::string hex() const;
};

/// Reusable hasher: holds the per-node hash array so repeated hashing of
/// similarly sized AIGs stops allocating after the first call.  Not
/// thread-safe; use one per thread (the stateless `hash_aig` keeps a
/// thread_local one).
class AigHasher {
 public:
  Digest hash(const Aig& aig);

 private:
  std::vector<std::uint64_t> node_hash_;
};

/// One-shot convenience over a thread_local `AigHasher`.
Digest hash_aig(const Aig& aig);

}  // namespace t1map::serve
