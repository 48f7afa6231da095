/// \file serve.hpp
/// \brief Public surface: the cached batch-serving layer — canonical AIG
/// hashing, the cache key (digest x params x pipeline), the tiered result
/// cache (in-memory LRU + optional persistent disk log), the transport
/// abstraction (stream / unix socket / TCP), and the JSONL server core.

#pragma once

#include "serve/aig_hash.hpp"
#include "serve/cache_key.hpp"
#include "serve/disk_cache.hpp"
#include "serve/flow_cache.hpp"
#include "serve/histogram.hpp"
#include "serve/result_codec.hpp"
#include "serve/server.hpp"
#include "serve/tiered_cache.hpp"
#include "serve/transport.hpp"
