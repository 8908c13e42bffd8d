#include "db/table.hpp"

#include <bit>
#include <new>

namespace janus::db {

namespace {

// A rule's node: the index's header, the rule's three values, then the
// key's bytes. A rule with a key of up to 16 bytes asks malloc for at most
// 56 bytes, a 64-byte chunk.
struct RuleNode : HashNode {
  double refill_per_sec = 0.0;
  double capacity = 0.0;
  double credit = 0.0;
};

RuleNode& rule_of(HashNode& node) { return static_cast<RuleNode&>(node); }
const RuleNode& rule_of(const HashNode& node) {
  return static_cast<const RuleNode&>(node);
}

}  // namespace

Table::Table() : index_(sizeof(RuleNode)) {}

HashNode* Table::find_locked(std::string_view key) const {
  return index_.find_prehashed(TransparentStringHash::hash_bytes(key), key);
}

RuleView Table::view(const HashNode& node) {
  const RuleNode& rule = rule_of(node);
  return {std::string_view(reinterpret_cast<const char*>(&node) +
                               sizeof(RuleNode),
                           node.key_size),
          rule.refill_per_sec, rule.capacity, rule.credit};
}

void Table::put(std::span<const PackedRow> rules, const RuleVisitor& written) {
  WriterLock lock(mu_);
  for (const PackedRow& row : rules) {
    HashNode* node = index_.find_prehashed(row.hash, row.rule.key);
    if (!node) {
      node = index_.insert(row.hash, row.rule.key,
                           [](void* memory) { return new (memory) RuleNode(); });
    }
    RuleNode& rule = rule_of(*node);
    rule.refill_per_sec = row.rule.refill_per_sec;
    rule.capacity = row.rule.capacity;
    rule.credit = row.rule.credit;
    written(view(*node));
  }
}

std::size_t Table::write_credits(std::span<const CreditWrite> writes,
                                 const RuleVisitor& written) {
  std::size_t n = 0;
  WriterLock lock(mu_);
  for (const CreditWrite& w : writes) {
    HashNode* node = find_locked(w.key);
    if (!node) continue;
    RuleNode& rule = rule_of(*node);
    if (std::bit_cast<std::uint64_t>(rule.credit) ==
        std::bit_cast<std::uint64_t>(w.credit)) {
      continue;
    }
    rule.credit = w.credit;
    written(view(*node));
    ++n;
  }
  return n;
}

bool Table::remove(std::string_view key) {
  WriterLock lock(mu_);
  return index_.erase(TransparentStringHash::hash_bytes(key), key);
}

void Table::scan(const RuleVisitor& fn) const {
  ReaderLock lock(mu_);
  index_.visit([&](const HashNode& node) { fn(view(node)); });
}

std::size_t Table::size() const {
  ReaderLock lock(mu_);
  return index_.size();
}

void Table::reserve(std::size_t rules) {
  WriterLock lock(mu_);
  index_.reserve(rules);
}

std::size_t Table::bucket_count() const {
  ReaderLock lock(mu_);
  return index_.bucket_count();
}

void Table::swap(Table& other) {
  WriterLock lock(mu_);
  WriterLock other_lock(other.mu_);
  index_.swap(other.index_);
}

}  // namespace janus::db
