/// \file result_codec.hpp
/// \brief Binary serialization of `serve::ServedResult` — the disk tier's
/// record payload format.
///
/// The encoding is platform-stable by the same rules as the cache keys:
/// explicit little-endian fixed-width integers, no padding, no pointers,
/// no `std::hash`.  A payload written on one machine decodes bit-identical
/// on any other, which is what lets a `--cache-dir` be rsync'd between
/// hosts or survive a toolchain upgrade.
///
/// A payload is the nine `t1::FlowStats` fields followed by the CEC
/// verdict.  Decoding builds no netlist and trusts no length: a truncated,
/// padded or otherwise malformed payload fails as `ContractError`.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/cache_key.hpp"

namespace t1map::serve {

/// Bumped whenever the payload layout changes; part of the record header,
/// so mixed-version cache directories fail loudly at open, not at decode.
/// Version 1 carried whole flow results (netlists included).
constexpr std::uint32_t kResultCodecVersion = 2;

/// Serializes `result` into a byte string.
std::string encode_result(const ServedResult& result);

/// Rebuilds a result from `encode_result` bytes.  Throws `ContractError`
/// on any truncation, trailing garbage, or a verdict that is not one of
/// `skipped|equivalent|not_equivalent|unknown`.
ServedResult decode_result(std::string_view bytes);

/// Platform-stable 64-bit FNV-1a + finalizer over a payload — the record
/// checksum of the disk tier.
std::uint64_t payload_checksum(std::string_view bytes);

}  // namespace t1map::serve
