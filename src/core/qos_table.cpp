#include "core/qos_table.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
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
  const HashNode* node = shard.entries.find_prehashed(h, key);
  return node != nullptr && !entry_of(*node).provisioned();
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
    shard->entries.visit(
        [&](const HashNode& node) { total += !entry_of(node).provisioned(); });
  }
  return total;
}

std::size_t ShardedQosTable::rule_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->entries.visit(
        [&](const HashNode& node) { total += !entry_of(node).is_default(); });
  }
  return total;
}

std::size_t ShardedQosTable::node_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

std::size_t ShardedQosTable::bucket_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->entries.bucket_count();
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
  entries.visit([&](HashNode& node) {
    QosEntry& entry = entry_of(node);
    if (!entry.provisioned()) fn(entries.key(node), entry);
  });
}

void ShardedQosTable::for_each_rule_in_shard(
    std::size_t index,
    const std::function<void(std::string_view, const QosEntry&)>& fn) const {
  const Shard& shard = *shards_.at(index);
  MutexLock lock(shard.mu);
  const HashIndex& entries = shard.entries;
  entries.visit([&](const HashNode& node) {
    const QosEntry& entry = entry_of(node);
    if (!entry.is_default()) fn(entries.key(node), entry);
  });
}

std::vector<std::pair<std::string, QosEntry>> ShardedQosTable::snapshot()
    const {
  std::vector<std::pair<std::string, QosEntry>> out;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    const HashIndex& entries = shard->entries;
    entries.visit([&](HashNode& node) {
      if (!entry_of(node).provisioned()) {
        out.emplace_back(entries.key(node), entry_of(node));
      }
    });
  }
  return out;
}

void ShardedQosTable::reserve(std::size_t entries) {
  // A shard's share of the keys varies by a few standard deviations of
  // the mean; four of them keep every shard clear of a rehash.
  const double mean = static_cast<double>(entries) / shards_.size();
  const auto per_shard =
      static_cast<std::size_t>(mean + 4 * std::sqrt(mean)) + 1;
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->entries.reserve(per_shard);
  }
}

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

void ShardedQosTable::apply_rules(std::span<LoadedRule> rules,
                                  const ShardGroups& groups, bool merge,
                                  TimePoint now) {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::uint32_t first = groups.runs[s];
    const std::uint32_t last = groups.runs[s + 1];
    if (first == last) continue;
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu);
    for (std::uint32_t at = first; at < last; ++at) {
      LoadedRule& rule = rules[groups.order[at]];
      HashNode* node = shard.entries.find_prehashed(rule.hash, rule.key);
      rule.stored = true;
      if (!node || !merge) {
        const QosEntry loaded = QosEntry::provision(
            rule.capacity, rule.refill_per_sec, rule.credit, now);
        if (node) {
          entry_of(*node) = loaded;
        } else {
          insert_locked(shard, rule.hash, rule.key, loaded);
        }
        continue;
      }
      QosEntry& entry = entry_of(*node);
      if (entry.is_default()) {
        // The key's first rule: it takes the rule and its credit.
        entry.bucket.reconfigure(rule.capacity, rule.refill_per_sec, now);
        entry.bucket.set_credit(rule.credit);
        entry.set_default(false);
      } else if (same_bits(entry.refill_per_sec(), rule.refill_per_sec) &&
                 same_bits(entry.capacity(), rule.capacity)) {
        rule.stored = false;
        continue;
      } else if (entry.provisioned()) {
        rule.credit = std::min(entry.bucket.credit(), rule.capacity);
        entry.bucket =
            LeakyBucket(rule.capacity, rule.refill_per_sec, rule.credit, now);
      } else {
        entry.bucket.reconfigure(rule.capacity, rule.refill_per_sec, now);
        rule.credit = entry.bucket.credit();
      }
      // The loader logs the rule with the credit it now holds.
      entry.set_credit_changed(false);
    }
  }
}

void ShardedQosTable::provision(std::string_view key, double capacity,
                                double refill_per_sec, double credit,
                                TimePoint now) {
  const std::size_t h = TransparentStringHash::hash_bytes(key);
  Shard& shard = *shards_[shard_index_of(h)];
  const QosEntry loaded =
      QosEntry::provision(capacity, refill_per_sec, credit, now);
  MutexLock lock(shard.mu);
  if (HashNode* node = shard.entries.find_prehashed(h, key)) {
    entry_of(*node) = loaded;
  } else {
    insert_locked(shard, h, key, loaded);
  }
}

bool ShardedQosTable::retire(std::string_view key) {
  const std::size_t h = TransparentStringHash::hash_bytes(key);
  Shard& shard = *shards_[shard_index_of(h)];
  MutexLock lock(shard.mu);
  HashNode* node = shard.entries.find_prehashed(h, key);
  if (!node) return false;
  if (entry_of(*node).is_default()) return shard.entries.erase(h, key);
  entry_of(*node).set_provisioned();
  return true;
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
  std::vector<std::size_t> hashes(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    hashes[i] = TransparentStringHash::hash_bytes(entries[i].first);
  }
  ShardGroups groups;
  group_by_shard(
      hashes.size(), [&](std::size_t i) { return hashes[i]; }, groups);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu);
    shard.entries.erase_if([](const HashNode& node) {
      const QosEntry& entry = entry_of(node);
      return !entry.provisioned() && entry.is_default();
    });
    shard.entries.visit(
        [](HashNode& node) { entry_of(node).set_provisioned(); });
    for (std::uint32_t at = groups.runs[s]; at < groups.runs[s + 1]; ++at) {
      const std::size_t i = groups.order[at];
      const auto& [key, entry] = entries[i];
      if (HashNode* node = shard.entries.find_prehashed(hashes[i], key)) {
        entry_of(*node) = entry;
      } else {
        insert_locked(shard, hashes[i], key, entry);
      }
    }
  }
}

}  // namespace janus::core
