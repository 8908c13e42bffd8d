#include "common/hash_index.hpp"

#include <algorithm>
#include <bit>
#include <new>
#include <stdexcept>

namespace janus {

namespace {
constexpr std::size_t kMinBuckets = 8;
}  // namespace

void HashIndex::throw_key_too_long() {
  throw std::length_error("hash index: key longer than 2^29 - 1 bytes");
}

void HashIndex::link(HashNode* node) {
  if (size_ + 1 > buckets_.size()) {
    rehash(std::max(kMinBuckets, buckets_.size() * 2));
  }
  HashNode*& head = buckets_[node->hash & (buckets_.size() - 1)];
  node->next = head;
  head = node;
  ++size_;
}

bool HashIndex::erase(std::uint64_t hash, std::string_view key) {
  if (buckets_.empty()) return false;
  const auto h = static_cast<std::uint32_t>(hash);
  for (HashNode** link = &buckets_[h & (buckets_.size() - 1)]; *link;
       link = &(*link)->next) {
    HashNode* node = *link;
    if (node->hash == h && this->key(*node) == key) {
      *link = node->next;
      ::operator delete(node);
      --size_;
      return true;
    }
  }
  return false;
}

void HashIndex::clear() {
  for (HashNode*& head : buckets_) {
    while (head) {
      HashNode* next = head->next;
      ::operator delete(head);
      head = next;
    }
  }
  size_ = 0;
}

void HashIndex::reserve(std::size_t nodes) {
  const std::size_t buckets = std::bit_ceil(std::max(kMinBuckets, nodes));
  if (buckets > buckets_.size()) rehash(buckets);
}

void HashIndex::rehash(std::size_t buckets) {
  std::vector<HashNode*> grown(buckets, nullptr);
  for (HashNode* head : buckets_) {
    while (head) {
      HashNode* next = head->next;
      HashNode*& slot = grown[head->hash & (buckets - 1)];
      head->next = slot;
      slot = head;
      head = next;
    }
  }
  buckets_ = std::move(grown);
}

}  // namespace janus
