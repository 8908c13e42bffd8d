#include "core/qos_table.hpp"

#include <algorithm>
#include <stdexcept>

namespace janus::core {

ShardedQosTable::ShardedQosTable(std::size_t shard_count) {
  if (shard_count == 0) {
    throw std::invalid_argument("ShardedQosTable: shard_count must be >= 1");
  }
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

bool ShardedQosTable::contains(std::string_view key) const {
  const std::size_t h = TransparentStringHash::hash_bytes(key);
  const Shard& shard = *shards_[shard_index_of(h)];
  MutexLock lock(shard.mu);
  return shard.entries.find_prehashed(h, key) != nullptr;
}

bool ShardedQosTable::erase(std::string_view key) {
  const std::size_t h = TransparentStringHash::hash_bytes(key);
  Shard& shard = *shards_[shard_index_of(h)];
  MutexLock lock(shard.mu);
  return shard.entries.erase(h, key);
}

std::size_t ShardedQosTable::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

void ShardedQosTable::clear() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->entries.clear();
  }
}

void ShardedQosTable::for_each(
    const std::function<void(std::string_view, QosEntry&)>& fn) {
  for (std::size_t i = 0; i < shards_.size(); ++i) for_each_in_shard(i, fn);
}

void ShardedQosTable::for_each_in_shard(
    std::size_t index,
    const std::function<void(std::string_view, QosEntry&)>& fn) {
  Shard& shard = *shards_.at(index);
  MutexLock lock(shard.mu);
  const HashIndex& entries = shard.entries;
  entries.visit([&](HashNode& node) { fn(entries.key(node), entry_of(node)); });
}

std::vector<std::pair<std::string, QosEntry>> ShardedQosTable::snapshot()
    const {
  std::vector<std::pair<std::string, QosEntry>> out;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    const HashIndex& entries = shard->entries;
    entries.visit([&](HashNode& node) {
      out.emplace_back(entries.key(node), entry_of(node));
    });
  }
  return out;
}

std::vector<HotKeyCount> ShardedQosTable::hot_keys(bool by_rejects,
                                                   std::size_t k) const {
  std::vector<HotKeyCount> rows;
  rows.reserve(shards_.size() * HotKeySketch::kSlots);
  // No shard mutex: each slot's seqlock makes the per-shard snapshot safe
  // against a writer holding it. Keys hash to exactly one shard, so the
  // merge has no duplicates to fold.
  for (const auto& shard : shards_) {
    shard->hot_keys.snapshot(rows);
  }
  std::sort(rows.begin(), rows.end(),
            [by_rejects](const HotKeyCount& a, const HotKeyCount& b) {
              if (by_rejects) {
                if (a.rejects != b.rejects) return a.rejects > b.rejects;
              }
              if (a.hits != b.hits) return a.hits > b.hits;
              return a.key < b.key;
            });
  if (rows.size() > k) rows.resize(k);
  return rows;
}

void ShardedQosTable::restore(
    std::vector<std::pair<std::string, QosEntry>> entries) {
  clear();
  for (const auto& [key, entry] : entries) {
    const std::size_t h = TransparentStringHash::hash_bytes(key);
    Shard& shard = *shards_[shard_index_of(h)];
    MutexLock lock(shard.mu);
    if (HashNode* node = shard.entries.find_prehashed(h, key)) {
      entry_of(*node) = entry;
    } else {
      insert_locked(shard, h, key, entry);
    }
  }
}

}  // namespace janus::core
