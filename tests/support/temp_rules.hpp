// A rules file for tests that start a QoS server in process. A server
// loads its rules from a file, as janusd does, and reloads the file on its
// sync pass (DESIGN.md §15.2); a test changes a rule by rewriting the file
// (a new inode, so the reload sees it) and calling sync_now().
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "db/rules_file.hpp"

namespace janus::test_support {

/// A rules file under the test temp directory, written on construction
/// and removed on destruction.
class TempRules {
 public:
  explicit TempRules(std::vector<db::RuleRow> rules = {})
      : path_(::testing::TempDir() + "janus_rules_" +
              std::to_string(::getpid()) + "_" + std::to_string(next_id()) +
              ".conf"),
        rules_(std::move(rules)) {
    write();
  }
  ~TempRules() { std::remove(path_.c_str()); }

  TempRules(const TempRules&) = delete;
  TempRules& operator=(const TempRules&) = delete;

  const std::string& path() const { return path_; }

  /// Set `rule`, replacing the line of its key, and rewrite the file.
  void put(const db::RuleRow& rule) { put_many({rule}); }

  /// put() each of `rules`, rewriting the file once.
  void put_many(const std::vector<db::RuleRow>& rules) {
    for (const db::RuleRow& rule : rules) {
      auto it = std::find_if(
          rules_.begin(), rules_.end(),
          [&](const db::RuleRow& r) { return r.key == rule.key; });
      if (it == rules_.end()) {
        rules_.push_back(rule);
      } else {
        *it = rule;
      }
    }
    write();
  }

  /// Drop the line of `key` and rewrite the file.
  void remove(const std::string& key) {
    std::erase_if(rules_, [&](const db::RuleRow& r) { return r.key == key; });
    write();
  }

 private:
  static int next_id() {
    static std::atomic<int> id{0};
    return id.fetch_add(1);
  }

  void write() {
    const Status s = db::write_rules_file(path_, rules_);
    ASSERT_TRUE(s.ok()) << s.error().message;
  }

  std::string path_;
  std::vector<db::RuleRow> rules_;  // in file order
};

}  // namespace janus::test_support
