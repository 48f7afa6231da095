/// \file result_codec.hpp
/// \brief Binary serialization of `serve::ServedResult` — the payload of a
/// disk-tier record — and the record checksum.
///
/// The encoding is platform-stable by the same rules as the cache keys:
/// explicit little-endian fixed-width integers, no padding, no pointers,
/// no `std::hash`.  A payload written on one machine decodes bit-identical
/// on any other, which is what lets a `--cache-dir` be rsync'd between
/// hosts or survive a toolchain upgrade.
///
/// A payload is the nine `t1::FlowStats` fields followed by the CEC
/// verdict.  Decoding trusts no length: a truncated, padded or otherwise
/// malformed payload fails as `ContractError`.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/cache_key.hpp"

namespace t1map::serve {

/// Bumped whenever the payload or record layout changes; stamped in the
/// log header, so mixed-version cache directories fail loudly at open, not
/// at decode.  Version 1 carried whole flow results (netlists included);
/// version 2 checksummed the payload alone and kept a second index file.
constexpr std::uint32_t kResultCodecVersion = 3;

/// Serializes `result` into a byte string.
std::string encode_result(const ServedResult& result);

/// Rebuilds a result from `encode_result` bytes.  Throws `ContractError`
/// on any truncation, trailing garbage, or a verdict that is not one of
/// `skipped|equivalent|not_equivalent|unknown`.
ServedResult decode_result(std::string_view bytes);

/// Platform-stable 64-bit FNV-1a + finalizer over `key` (hi then lo,
/// little-endian) followed by `payload` — the record checksum of the disk
/// tier.  Covering the key means a flipped key byte fails the check
/// instead of filing the result under another design's key.
std::uint64_t record_checksum(const CacheKey& key, std::string_view payload);

}  // namespace t1map::serve
