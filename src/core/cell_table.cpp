#include "core/cell_table.h"

#include <algorithm>

namespace pandas::core {

std::size_t CellTable::probe(std::uint32_t key) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home_slot(key);
  while (slots_[i].key != key && slots_[i].key != kEmptyKey) i = (i + 1) & mask;
  return i;
}

std::uint32_t* CellTable::find(std::uint32_t key) noexcept {
  if (size_ == 0) return nullptr;
  Slot& s = slots_[probe(key)];
  return s.key == kEmptyKey ? nullptr : &s.value;
}

void CellTable::grow() {
  std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
  old.swap(slots_);
  for (const Slot& s : old) {
    if (s.key != kEmptyKey) slots_[probe(s.key)] = s;
  }
}

std::uint32_t& CellTable::insert(std::uint32_t key, std::uint32_t init) {
  if ((size_ + 1) * 8 > slots_.size() * 7) grow();
  Slot& s = slots_[probe(key)];
  if (s.key == kEmptyKey) {
    s = {key, init};
    ++size_;
  }
  return s.value;
}

bool CellTable::erase(std::uint32_t key) noexcept {
  if (size_ == 0) return false;
  std::size_t hole = probe(key);
  if (slots_[hole].key == kEmptyKey) return false;
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless that would move one before its home slot.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; slots_[j].key != kEmptyKey;
       j = (j + 1) & mask) {
    const std::size_t from_home = (j - home_slot(slots_[j].key)) & mask;
    if (from_home >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --size_;
  return true;
}

void CellTable::clear() noexcept {
  if (size_ > 0) std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

}  // namespace pandas::core
