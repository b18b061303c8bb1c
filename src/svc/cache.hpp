// Thread-safe LRU cache of detection results keyed by graph
// fingerprint. Values are shared_ptr<const core::Result>: a hit hands
// the client the same immutable object the first run produced, so
// repeated submissions of the same graph return without touching a
// device and "same fingerprint -> identical community vector" holds by
// construction.
#pragma once

#include "core/louvain.hpp"
#include "svc/fingerprint.hpp"
#include "util/lru_cache.hpp"

namespace glouvain::svc {

using ResultCache = util::LruCache<Fingerprint, core::Result, FingerprintHash>;

}  // namespace glouvain::svc
