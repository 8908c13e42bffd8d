#include "db/value.hpp"

#include <stdexcept>

namespace janus::db {

std::size_t Schema::column_index(std::string_view name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return i;
  }
  throw std::out_of_range("schema: no column named " + std::string(name));
}

bool Schema::matches(const std::vector<Value>& row) const {
  if (row.size() != columns.size()) return false;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (type_of(row[i]) != columns[i].type) return false;
  }
  return true;
}

void RowView::copy_to(Row& out) const {
  out.resize(size());
  if (auto* key = std::get_if<std::string>(&out[0])) {
    key->assign(key_);
  } else {
    out[0] = std::string(key_);
  }
  for (std::size_t col = 1; col < size(); ++col) {
    if (type(col) == ColumnType::kDouble) {
      out[col] = real(col);
    } else {
      out[col] = int64(col);
    }
  }
}

Row RowView::to_row() const {
  Row out;
  copy_to(out);
  return out;
}

}  // namespace janus::db
