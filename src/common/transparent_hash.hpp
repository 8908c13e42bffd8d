// The key hash of every table keyed by a QoS key or a primary key: CRC-32 of
// the key (the same primitive the router partition uses, so one CRC pass
// can feed both) widened through a SplitMix64 finalizer. The QoS table and
// db::Table hash a key once with hash_bytes() and hand the value to their
// shared HashIndex (common/hash_index.hpp), which probes with it and never
// hashes again (DESIGN.md §9). As a functor it is also a transparent hasher
// (is_transparent) for a std::unordered_map probed with string_view.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/crc32.hpp"
#include "common/hot_path.hpp"

namespace janus {

struct TransparentStringHash {
  using is_transparent = void;

  /// SplitMix64 finalizer: spreads the 32 CRC bits over the full size_t, so
  /// a table's bucket (the low half) and the QoS table's shard (the high
  /// half) each see all of them.
  static constexpr std::size_t finalize(std::uint32_t crc) noexcept {
    std::uint64_t h = crc;
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBull;
    h ^= h >> 31;
    return static_cast<std::size_t>(h);
  }

  JANUS_HOT_PATH static constexpr std::size_t hash_bytes(
      std::string_view s) noexcept {
    return finalize(crc32(s));
  }

  constexpr std::size_t operator()(std::string_view s) const noexcept {
    return hash_bytes(s);
  }
  constexpr std::size_t operator()(const std::string& s) const noexcept {
    return hash_bytes(s);
  }
  constexpr std::size_t operator()(const char* s) const noexcept {
    return hash_bytes(s);
  }
};

}  // namespace janus
