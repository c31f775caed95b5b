#include "core/query_buffer.h"

#include <algorithm>
#include <cassert>

namespace pandas::core {

std::size_t QueryBuffer::home(std::uint32_t key) const noexcept {
  // Fibonacci hashing: packed cells are (row << 16 | col), so the multiply
  // spreads both coordinates into the high bits the table index uses.
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) &
         (heads_.size() - 1);
}

std::size_t QueryBuffer::probe(std::uint32_t key) const noexcept {
  const std::size_t mask = heads_.size() - 1;
  std::size_t i = home(key);
  while (heads_[i].key != key && heads_[i].key != kEmptyKey) i = (i + 1) & mask;
  return i;
}

void QueryBuffer::erase_head(std::size_t slot) noexcept {
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless that would move one before its home slot.
  const std::size_t mask = heads_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t j = (hole + 1) & mask; heads_[j].key != kEmptyKey;
       j = (j + 1) & mask) {
    const std::size_t from_home = (j - home(heads_[j].key)) & mask;
    if (from_home >= ((j - hole) & mask)) {
      heads_[hole] = heads_[j];
      hole = j;
    }
  }
  heads_[hole] = Head{};
  --head_count_;
}

void QueryBuffer::grow() {
  std::vector<Head> old(std::max<std::size_t>(16, 2 * heads_.size()));
  old.swap(heads_);
  for (const Head& h : old) {
    if (h.key != kEmptyKey) heads_[probe(h.key)] = h;
  }
}

std::uint32_t QueryBuffer::owner(std::uint32_t link) const noexcept {
  const auto it = std::upper_bound(
      queries_.begin(), queries_.end(), link,
      [](std::uint32_t l, const Query& q) { return l < q.first; });
  return static_cast<std::uint32_t>(it - queries_.begin()) - 1;
}

QueryBuffer::QueryId QueryBuffer::add(net::NodeIndex requester,
                                      std::span<const net::CellId> missing) {
  assert(!missing.empty());
  if (live_ == 0) {
    // Nothing waits, so no chain points into the slab: recycle it.
    slab_.clear();
    queries_.clear();
  }
  const auto id = static_cast<QueryId>(queries_.size());
  const auto count = static_cast<std::uint32_t>(missing.size());
  queries_.push_back(
      {requester, static_cast<std::uint32_t>(slab_.size()), count, count});
  for (const auto cell : missing) {
    if ((head_count_ + 1) * 8 > heads_.size() * 7) grow();
    const std::uint32_t key = cell.packed();
    Head& head = heads_[probe(key)];
    if (head.key == kEmptyKey) {
      head.key = key;
      ++head_count_;
    }
    slab_.push_back({cell, head.link});
    head.link = static_cast<std::uint32_t>(slab_.size() - 1);
  }
  ++live_;
  return id;
}

std::span<const QueryBuffer::QueryId> QueryBuffer::on_obtained(
    std::span<const net::CellId> cells) {
  completed_.clear();
  if (head_count_ == 0) return {};
  for (const auto cell : cells) {
    const std::size_t slot = probe(cell.packed());
    if (heads_[slot].key == kEmptyKey) continue;
    for (std::uint32_t l = heads_[slot].link; l != kNil; l = slab_[l].next) {
      const std::uint32_t q = owner(l);
      if (--queries_[q].remaining == 0) completed_.push_back(q);
    }
    erase_head(slot);
    if (head_count_ == 0) break;
  }
  std::sort(completed_.begin(), completed_.end());
  live_ -= completed_.size();
  return completed_;
}

std::vector<net::CellId> QueryBuffer::cells(QueryId id) const {
  const Query& q = queries_[id];
  std::vector<net::CellId> out;
  out.reserve(q.count);
  for (std::uint32_t l = q.first; l < q.first + q.count; ++l) {
    out.push_back(slab_[l].cell);
  }
  return out;
}

void QueryBuffer::clear() {
  slab_.clear();
  queries_.clear();
  if (head_count_ > 0) std::fill(heads_.begin(), heads_.end(), Head{});
  head_count_ = 0;
  live_ = 0;
}

}  // namespace pandas::core
