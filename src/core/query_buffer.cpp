#include "core/query_buffer.h"

#include <algorithm>
#include <cassert>

namespace pandas::core {

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
    std::uint32_t& head = heads_.insert(cell.packed(), kNil);
    slab_.push_back({cell, head});
    head = static_cast<std::uint32_t>(slab_.size() - 1);
  }
  ++live_;
  return id;
}

std::span<const QueryBuffer::QueryId> QueryBuffer::on_obtained(
    std::span<const net::CellId> cells) {
  completed_.clear();
  if (heads_.size() == 0) return {};
  for (const auto cell : cells) {
    const std::uint32_t* head = heads_.find(cell.packed());
    if (head == nullptr) continue;
    for (std::uint32_t l = *head; l != kNil; l = slab_[l].next) {
      const std::uint32_t q = owner(l);
      if (--queries_[q].remaining == 0) completed_.push_back(q);
    }
    heads_.erase(cell.packed());
    if (heads_.size() == 0) break;
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
  heads_.clear();
  live_ = 0;
}

}  // namespace pandas::core
