// The rules file `janusd server --rules` loads into qos_rules (§III-D): one
// rule per line, `key = rate capacity [credit]`, e.g.
//
//   tenant-42 = 100 1000
//   10.0.0.7  = 5 20 12.5
//
// The credit defaults to the capacity. Blank lines and lines starting with
// `#` are skipped; spaces around the fields, CRLF line endings and a last
// line without a newline are accepted.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.hpp"
#include "db/rule_store.hpp"

namespace janus::db {

/// The loader reads the file in blocks of this many bytes (a longer line
/// grows the block to hold it).
inline constexpr std::size_t kRulesReadBlock = 64 * 1024;

/// One line of the rules file: a rule (its key views `line`) that passed
/// RuleStore::validate, or nothing for a blank line or a comment. Errors
/// read `rules line <lineno>: ...`.
Result<std::optional<RuleView>> parse_rule_line(std::string_view line,
                                                int lineno);

/// Loads the rules file at `path` into `store` (DESIGN.md §15.2). The table
/// is first sized for the file's line count; then each block's lines are
/// parsed where they lie into a chunk of at most Database::kWriteChunkRows
/// packed rules, each validated once, and the chunk is committed through
/// Database::put before the block moves. Memory stays bounded by one block
/// and one chunk.
///
/// On a database that held rules before the load (a restored snapshot and
/// WAL), each line is applied to the rules as the lines before it left
/// them: a key already held keeps its credit, clamped to the line's
/// capacity, and takes the line's rate and capacity; a line that changes
/// neither writes nothing; a key not held takes the line's credit.
///
/// The first bad line stops the load with parse_rule_line's error; a
/// failed commit names the line the loader had reached. Rules committed
/// before either stay.
Status load_rules(RuleStore& store, const std::string& path);

}  // namespace janus::db
