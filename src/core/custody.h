#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/assignment.h"
#include "core/params.h"
#include "net/messages.h"
#include "util/bitmap.h"

/// Per-slot custody state of one node: which cells of its assigned lines it
/// currently holds, plus any extra cells obtained outside those lines (its
/// random samples). Tracks erasure-code reconstruction: once an assigned
/// line holds >= k of its n cells, the remaining cells are recovered locally
/// (§6.2 / Algorithm 1 lines 25-27), which can cascade into crossing lines.
namespace pandas::core {

class CustodyState {
 public:
  CustodyState() = default;
  CustodyState(const ProtocolParams& params, AssignedLines lines);

  /// Outcome of ingesting a batch of cells.
  struct AddResult {
    std::uint32_t new_cells = 0;        ///< previously unseen cells
    std::uint32_t duplicates = 0;       ///< already-held cells received again
    std::uint32_t reconstructed = 0;    ///< cells recovered via the code
    /// Lines that became complete during this ingest.
    std::vector<net::LineRef> completed;
    /// Every cell that became held (received + reconstructed), for
    /// downstream bookkeeping (fetch set, pending queries, samples).
    std::vector<net::CellId> obtained;
  };

  /// Ingests received cells. Cells outside the assigned lines are kept as
  /// "extras" when `keep_extras` (used for sample cells).
  AddResult add_cells(std::span<const net::CellId> cells, bool keep_extras);

  [[nodiscard]] bool has_cell(net::CellId cell) const noexcept;

  /// Held positions of an assigned line (for a cell of an assigned line this
  /// agrees with has_cell), or nullptr if the line is not assigned.
  [[nodiscard]] const util::Bitmap512* held_in_line(
      net::LineRef line) const noexcept {
    const int slot = line_slot(line);
    return slot < 0 ? nullptr : &line_bitmaps_[slot];
  }

  [[nodiscard]] bool line_complete(net::LineRef line) const noexcept;
  [[nodiscard]] std::uint32_t line_count(net::LineRef line) const noexcept;
  [[nodiscard]] bool all_lines_complete() const noexcept {
    return complete_lines_ == line_bitmaps_.size();
  }
  [[nodiscard]] std::uint32_t complete_line_count() const noexcept {
    return complete_lines_;
  }

  [[nodiscard]] const AssignedLines& assignment() const noexcept { return lines_; }

  /// Total distinct assigned cells currently held (excludes extras).
  [[nodiscard]] std::uint64_t held_cells() const noexcept;

 private:
  /// Index into line_bitmaps_ for an assigned line; -1 if not assigned.
  [[nodiscard]] int line_slot(net::LineRef line) const noexcept {
    if (line.index >= kLines || slot_of_.empty()) return -1;
    const std::uint8_t s = slot_of_[index_of(line)];
    return s == kNoSlot ? -1 : s;
  }
  [[nodiscard]] static std::size_t index_of(net::LineRef line) noexcept {
    return (line.kind == net::LineRef::Kind::kRow ? 0 : kLines) + line.index;
  }
  [[nodiscard]] net::LineRef slot_line(std::size_t slot) const noexcept;

  /// Marks one cell inside an assigned line's bitmap; returns true if new.
  bool mark(std::size_t slot, std::uint32_t pos) noexcept;

  /// Completes a line (sets all n bits), recording newly obtained cells and
  /// cascading into crossing assigned lines. Appends to `result`.
  void complete_line(std::size_t slot, AddResult& result);

  static constexpr std::uint8_t kNoSlot = 0xff;
  /// Lines per orientation the index covers: a line is a Bitmap512.
  static constexpr std::size_t kLines = util::Bitmap512::kCapacity;

  ProtocolParams params_;
  AssignedLines lines_;
  /// Line -> slot in line_bitmaps_ (rows, then cols), kNoSlot if unassigned.
  std::vector<std::uint8_t> slot_of_;
  std::vector<util::Bitmap512> line_bitmaps_;  // rows then cols
  std::vector<bool> line_complete_;
  std::uint32_t complete_lines_ = 0;
  std::unordered_set<std::uint32_t> extras_;  // packed CellIds outside lines
};

}  // namespace pandas::core
