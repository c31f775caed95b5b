#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// Open-addressing map from a packed cell id (net::CellId::packed) to a
/// 32-bit value. The per-node query buffer keys its waiter chains by it and
/// the fetcher its per-cell coverage. Linear probing over a power-of-two
/// array of 8-byte slots, grown at 7/8 load (memory tracks the number of
/// distinct cells), with backward-shift erase: no tombstones, so a table
/// that lives through many inserts and erases never degrades.
namespace pandas::core {

class CellTable {
 public:
  /// Packed id of an empty slot: row/col 0xffff is no matrix cell.
  static constexpr std::uint32_t kEmptyKey = 0xffffffffU;

  /// The key's value, or nullptr if absent. Valid until the next insert,
  /// erase or clear.
  [[nodiscard]] std::uint32_t* find(std::uint32_t key) noexcept;
  [[nodiscard]] const std::uint32_t* find(std::uint32_t key) const noexcept {
    return const_cast<CellTable*>(this)->find(key);
  }
  /// The key's value, inserted as `init` if absent (same validity as find).
  std::uint32_t& insert(std::uint32_t key, std::uint32_t init);
  /// Removes the key; false if it was absent.
  bool erase(std::uint32_t key) noexcept;
  /// Drops every key, keeping the capacity.
  void clear() noexcept;
  /// Calls fn(key, value) for every entry, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey) fn(s.key, s.value);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  /// First slot of the key's probe sequence (capacity() must be > 0).
  [[nodiscard]] std::size_t home_slot(std::uint32_t key) const noexcept {
    // Fibonacci hashing: packed cells are (row << 16 | col), so the multiply
    // spreads both coordinates into the high bits the table index uses.
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) &
           (slots_.size() - 1);
  }

 private:
  struct Slot {
    std::uint32_t key = kEmptyKey;
    std::uint32_t value = 0;
  };
  /// Index of the slot holding `key`, or of the empty slot ending its probe
  /// sequence.
  [[nodiscard]] std::size_t probe(std::uint32_t key) const noexcept;
  void grow();

  std::vector<Slot> slots_;  ///< power-of-two size, or empty
  std::size_t size_ = 0;
};

}  // namespace pandas::core
