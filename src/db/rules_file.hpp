// The rules file `janusd server --rules` loads into its QoS table (§III-D):
// one rule per line, `key = rate capacity [credit]`, e.g.
//
//   tenant-42 = 100 1000
//   10.0.0.7  = 5 20 12.5
//
// The credit defaults to the capacity. Blank lines and lines starting with
// `#` are skipped; spaces around the fields, CRLF line endings and a last
// line without a newline are accepted.
#pragma once

#include <cstddef>
#include <cstdio>
#include <functional>
#include <optional>
#include <span>
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

/// Rules per chunk.
inline constexpr std::size_t kRulesChunk = Database::kWriteChunkRows;

/// The lines in the rules file open as `file`, from its start (a last
/// line without a newline counts), so that a loader can size its index
/// before the first chunk.
std::size_t count_lines(std::FILE* file);

/// What parse_rules_file hands each chunk to: at most kRulesChunk
/// validated rules, in file order, each with its key's hash. Their keys
/// view the read block, which stays put until it returns.
using RulesChunkFn = std::function<Status(std::span<const PackedRow>)>;

/// Parse the rules file open as `file`, from its first line (DESIGN.md
/// §15.2): each block's lines are parsed where they lie into a chunk of at
/// most kRulesChunk rules, each validated and hashed once, and the chunk
/// goes to `store` before the block moves. Memory stays bounded by one
/// block and one chunk. A `store` that does nothing checks the whole file.
///
/// The first bad line stops the parse with parse_rule_line's error; a
/// failed store reads `rules line <n>: ...`, n the last line read. Chunks
/// stored before either stay.
Status parse_rules_file(std::FILE* file, const RulesChunkFn& store);

/// Write `rules` to a rules file at `path`, one `key = rate capacity
/// credit` line each, every number in the shortest form that parses back
/// to the same double. The file is written beside `path` and renamed over
/// it, so that a server watching `path` sees a new file.
Status write_rules_file(const std::string& path,
                        std::span<const RuleRow> rules);

}  // namespace janus::db
