#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/cell_table.h"
#include "net/messages.h"

/// Buffered cell queries of one node-slot (paper §7): PANDAS never sends a
/// negative acknowledgement, so a query for cells the node does not hold yet
/// waits until every one of them is available and is then answered in full.
///
/// The buffer is indexed by cell, so serving costs O(cells obtained + their
/// waiters) per ingest instead of a rescan of every buffered query.
///
/// Layout (memory is the binding constraint at scale): one slab of
/// {cell, next-waiter} links, in which each query owns a contiguous run and
/// keeps a `remaining` counter; links waiting on the same cell are chained
/// from a cell -> most-recent-waiter head table (core::CellTable), which
/// tracks the number of distinct waited cells. That is 8 B per buffered
/// cell, 16 B per query and 8 B per head slot. Served runs stay in the slab until it drains: the next add() after
/// the last waiting query was served recycles slab and query records.
namespace pandas::core {

class QueryBuffer {
 public:
  /// Dense query id. add() returns one past the previous id, or 0 when no
  /// query was waiting (records are recycled then), so ascending ids are
  /// arrival order among the queries that can complete together, and a
  /// caller can keep per-query context in a vector resized to id + 1.
  using QueryId = std::uint32_t;

  /// Buffers a query from `requester` that waits on `missing` — non-empty,
  /// none of them held (a held cell would never be reported as obtained).
  /// Repeated cells are allowed; the query is served once for all of them.
  QueryId add(net::NodeIndex requester, std::span<const net::CellId> missing);

  /// Records that `cells` became held — the custody AddResult::obtained list,
  /// which names every newly held cell, reconstruction cascades included.
  /// Returns the queries that just became complete, ascending (arrival
  /// order). Cells nobody waits on are ignored. The span stays valid until
  /// the next call.
  std::span<const QueryId> on_obtained(std::span<const net::CellId> cells);

  /// Requester of a buffered query. An id returned by on_obtained() can be
  /// read until the next add() or clear().
  [[nodiscard]] net::NodeIndex requester(QueryId id) const noexcept {
    return queries_[id].requester;
  }
  /// The cells a buffered query waits or waited on, in the order given to
  /// add() (same validity as requester()).
  [[nodiscard]] std::vector<net::CellId> cells(QueryId id) const;

  /// Queries still waiting.
  [[nodiscard]] std::size_t pending() const noexcept { return live_; }

  /// Drops every buffered query (slot boundary).
  void clear();

 private:
  static constexpr std::uint32_t kNil = 0xffffffffU;

  struct Link {
    net::CellId cell;
    std::uint32_t next = kNil;  ///< next link waiting on the same cell
  };
  struct Query {
    net::NodeIndex requester = 0;
    std::uint32_t first = 0;  ///< first slab link of the query's run
    std::uint32_t count = 0;  ///< run length
    std::uint32_t remaining = 0;
  };
  /// Query owning slab link `link`.
  [[nodiscard]] std::uint32_t owner(std::uint32_t link) const noexcept;

  std::vector<Link> slab_;
  std::vector<Query> queries_;  ///< indexed by id; ascending `first`
  CellTable heads_;  ///< packed cell -> most recent waiting link
  std::size_t live_ = 0;
  std::vector<QueryId> completed_;
};

}  // namespace pandas::core
