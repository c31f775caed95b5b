#include "core/custody.h"

#include <algorithm>
#include <stdexcept>

namespace pandas::core {

CustodyState::CustodyState(const ProtocolParams& params, AssignedLines lines)
    : params_(params), lines_(std::move(lines)) {
  line_bitmaps_.assign(lines_.rows.size() + lines_.cols.size(), {});
  line_complete_.assign(line_bitmaps_.size(), false);
  if (line_bitmaps_.size() >= kNoSlot) {
    throw std::length_error("CustodyState: too many assigned lines");
  }
  slot_of_.assign(2 * kLines, kNoSlot);
  for (std::size_t s = 0; s < line_bitmaps_.size(); ++s) {
    const net::LineRef line = slot_line(s);
    if (line.index >= kLines) {
      throw std::out_of_range("CustodyState: line outside the matrix");
    }
    std::uint8_t& slot = slot_of_[index_of(line)];
    if (slot == kNoSlot) slot = static_cast<std::uint8_t>(s);
  }
}

net::LineRef CustodyState::slot_line(std::size_t slot) const noexcept {
  if (slot < lines_.rows.size()) return net::LineRef::row(lines_.rows[slot]);
  return net::LineRef::col(lines_.cols[slot - lines_.rows.size()]);
}

bool CustodyState::mark(std::size_t slot, std::uint32_t pos) noexcept {
  auto& bm = line_bitmaps_[slot];
  if (bm.test(pos)) return false;
  bm.set(pos);
  return true;
}

bool CustodyState::has_cell(net::CellId cell) const noexcept {
  // A cell of an assigned line is marked in that line's bitmap whenever it
  // is held (add_cells and complete_line mark both crossing lines), and is
  // never an extra.
  const int row_slot = line_slot(net::LineRef::row(cell.row));
  if (row_slot >= 0) return line_bitmaps_[row_slot].test(cell.col);
  const int col_slot = line_slot(net::LineRef::col(cell.col));
  if (col_slot >= 0) return line_bitmaps_[col_slot].test(cell.row);
  return extras_.count(cell.packed()) != 0;
}

bool CustodyState::line_complete(net::LineRef line) const noexcept {
  const int slot = line_slot(line);
  return slot >= 0 && line_complete_[slot];
}

std::uint32_t CustodyState::line_count(net::LineRef line) const noexcept {
  const int slot = line_slot(line);
  return slot < 0 ? 0 : line_bitmaps_[slot].count_prefix(params_.matrix_n);
}

void CustodyState::complete_line(std::size_t slot, AddResult& result) {
  if (line_complete_[slot]) return;
  line_complete_[slot] = true;
  ++complete_lines_;
  result.completed.push_back(slot_line(slot));

  const net::LineRef line = slot_line(slot);
  auto& bm = line_bitmaps_[slot];
  const auto missing = bm.clear_bits(params_.matrix_n);
  result.reconstructed += static_cast<std::uint32_t>(missing.size());
  bm.set_prefix(params_.matrix_n);

  // Newly recovered cells may complete crossing assigned lines; collect the
  // slots to re-check and recurse breadth-first.
  std::vector<std::size_t> recheck;
  for (const auto pos : missing) {
    net::CellId cell;
    net::LineRef crossing;
    if (line.kind == net::LineRef::Kind::kRow) {
      cell = {line.index, static_cast<std::uint16_t>(pos)};
      crossing = net::LineRef::col(static_cast<std::uint16_t>(pos));
    } else {
      cell = {static_cast<std::uint16_t>(pos), line.index};
      crossing = net::LineRef::row(static_cast<std::uint16_t>(pos));
    }
    result.obtained.push_back(cell);
    const int cross_slot = line_slot(crossing);
    if (cross_slot >= 0 && !line_complete_[cross_slot]) {
      const std::uint32_t cross_pos =
          line.kind == net::LineRef::Kind::kRow ? cell.row : cell.col;
      if (mark(static_cast<std::size_t>(cross_slot), cross_pos)) {
        recheck.push_back(static_cast<std::size_t>(cross_slot));
      }
    }
  }
  for (const auto s : recheck) {
    if (!line_complete_[s] &&
        line_bitmaps_[s].count_prefix(params_.matrix_n) >= params_.matrix_k) {
      complete_line(s, result);
    }
  }
}

CustodyState::AddResult CustodyState::add_cells(
    std::span<const net::CellId> cells, bool keep_extras) {
  AddResult result;
  std::vector<std::size_t> touched;

  for (const auto cell : cells) {
    const int row_slot = line_slot(net::LineRef::row(cell.row));
    const int col_slot = line_slot(net::LineRef::col(cell.col));
    const bool was_held = has_cell(cell);
    if (row_slot >= 0) {
      if (mark(static_cast<std::size_t>(row_slot), cell.col) &&
          !line_complete_[row_slot]) {
        touched.push_back(static_cast<std::size_t>(row_slot));
      }
    }
    if (col_slot >= 0) {
      if (mark(static_cast<std::size_t>(col_slot), cell.row) &&
          !line_complete_[col_slot]) {
        touched.push_back(static_cast<std::size_t>(col_slot));
      }
    }
    if (row_slot < 0 && col_slot < 0 && keep_extras) {
      extras_.insert(cell.packed());
    }
    if (was_held) {
      ++result.duplicates;
    } else if (row_slot >= 0 || col_slot >= 0 || keep_extras) {
      ++result.new_cells;
      result.obtained.push_back(cell);
    }
  }

  // Completion checks after the whole batch (cheaper and order-insensitive).
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const auto slot : touched) {
    if (!line_complete_[slot] &&
        line_bitmaps_[slot].count_prefix(params_.matrix_n) >= params_.matrix_k) {
      complete_line(slot, result);
    }
  }
  return result;
}

std::uint64_t CustodyState::held_cells() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < line_bitmaps_.size(); ++s) {
    total += line_bitmaps_[s].count_prefix(params_.matrix_n);
  }
  // Subtract row/column intersection cells counted twice.
  for (std::size_t rs = 0; rs < lines_.rows.size(); ++rs) {
    for (std::size_t cs = 0; cs < lines_.cols.size(); ++cs) {
      const std::uint16_t r = lines_.rows[rs];
      const std::uint16_t c = lines_.cols[cs];
      if (line_bitmaps_[rs].test(c) &&
          line_bitmaps_[lines_.rows.size() + cs].test(r)) {
        --total;
      }
    }
  }
  return total;
}

}  // namespace pandas::core
