// The intrusive hash index shared by the two tables keyed by a QoS key: the
// QoS server's ShardedQosTable (one index per shard) and db::Table (the
// rules table's primary key). Each key lives in one heap block, the node:
// a 16-byte HashNode (chain link, the key's 32-bit hash, its length and
// three owner flags), the owner's fixed-size payload, then the key's bytes at a
// fixed offset. The buckets are a power-of-two array of chain heads grown to
// keep at most one node per bucket.
//
// Callers hash a key once (TransparentStringHash::hash_bytes, a 64-bit
// finalized CRC-32) and hand that hash to every call: the index takes the
// bucket from its low 32 bits and stores them in the node, so a probe
// compares the stored hash before the key and never hashes again, while the
// QoS table picks its shard from the high half (DESIGN.md §9).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hot_path.hpp"

namespace janus {

/// The first 16 bytes of every node a HashIndex chains.
struct HashNode {
  HashNode* next = nullptr;
  /// The low 32 bits of the key's hash.
  std::uint32_t hash = 0;
  std::uint32_t key_size : 29 = 0;
  /// Bits the owner may use (the QoS table's entry states).
  std::uint32_t flags : 3 = 0;
};
static_assert(sizeof(HashNode) == 16, "a node header is 16 bytes");

class HashIndex {
 public:
  /// The longest key a node can hold (HashNode::key_size is 29 bits).
  static constexpr std::size_t kMaxKeySize = (std::size_t{1} << 29) - 1;

  /// Nodes keep their key's bytes `key_offset` bytes past their start.
  explicit HashIndex(std::size_t key_offset) : key_offset_(key_offset) {}
  ~HashIndex() { clear(); }

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  std::string_view key(const HashNode& node) const {
    return {reinterpret_cast<const char*>(&node) + key_offset_,
            node.key_size};
  }

  /// The node holding `key`, whose hash is `hash`, or null. Reads the
  /// key's bucket slot and its chain, comparing each node's stored hash
  /// before its key.
  JANUS_HOT_PATH HashNode* find_prehashed(std::uint64_t hash,
                                          std::string_view key) const {
    if (buckets_.empty()) return nullptr;
    const auto h = static_cast<std::uint32_t>(hash);
    for (HashNode* n = buckets_[h & (buckets_.size() - 1)]; n; n = n->next) {
      if (n->hash == h && this->key(*n) == key) return n;
    }
    return nullptr;
  }

  /// Add a node for `key`, which must be absent, reusing its hash `hash`.
  /// `construct(memory)` builds the node in key_offset + key.size() fresh
  /// bytes, must not throw, and returns it; the index then writes the
  /// node's hash and the key's size and bytes, and links it. Throws
  /// std::length_error for a key longer than kMaxKeySize. The node must be
  /// trivially destructible: erase and clear free its block as it is.
  template <typename Construct>
  HashNode* insert(std::uint64_t hash, std::string_view key,
                   Construct&& construct) {
    if (key.size() > kMaxKeySize) throw_key_too_long();
    HashNode* node = construct(::operator new(key_offset_ + key.size()));
    node->hash = static_cast<std::uint32_t>(hash);
    node->key_size = static_cast<std::uint32_t>(key.size());
    if (!key.empty()) {
      std::memcpy(reinterpret_cast<char*>(node) + key_offset_, key.data(),
                  key.size());
    }
    link(node);
    return node;
  }

  /// Unlink the node holding `key` and free it; false if there is none.
  bool erase(std::uint64_t hash, std::string_view key);

  /// Unlink and free every node for which `pred(node)` is true. Returns
  /// the nodes freed.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    std::size_t freed = 0;
    for (HashNode*& head : buckets_) {
      for (HashNode** link = &head; *link;) {
        HashNode* node = *link;
        if (!pred(static_cast<const HashNode&>(*node))) {
          link = &node->next;
          continue;
        }
        *link = node->next;
        ::operator delete(node);
        ++freed;
      }
    }
    size_ -= freed;
    return freed;
  }

  /// Free every node. The bucket array stays.
  void clear();

  /// Exchange every node, and the bucket array, with `other`.
  void swap(HashIndex& other) noexcept {
    std::swap(key_offset_, other.key_offset_);
    buckets_.swap(other.buckets_);
    std::swap(size_, other.size_);
  }

  /// Size the bucket array for `nodes` nodes, so that inserting that many
  /// rehashes nothing. Never shrinks it.
  void reserve(std::size_t nodes);

  std::size_t size() const { return size_; }
  /// Buckets in the array (a power of two, 0 before the first node).
  std::size_t bucket_count() const { return buckets_.size(); }

  /// Call `fn(node)` for every node, in bucket order. `fn` must not insert
  /// or erase.
  template <typename Fn>
  void visit(Fn&& fn) const {
    for (HashNode* head : buckets_) {
      for (HashNode* n = head; n; n = n->next) fn(*n);
    }
  }

 private:
  [[noreturn]] static void throw_key_too_long();
  /// Chain `node` into its bucket, first doubling the array if it would
  /// hold more nodes than buckets.
  void link(HashNode* node);
  void rehash(std::size_t buckets);

  std::size_t key_offset_;
  std::vector<HashNode*> buckets_;
  std::size_t size_ = 0;
};

}  // namespace janus
