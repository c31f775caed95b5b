#include "net/messages.h"

#include <algorithm>
#include <type_traits>

#include "crypto/kzg_sim.h"

namespace pandas::net {

namespace {

std::uint32_t boost_wire_bytes(const BoostMap& boost) noexcept {
  std::uint32_t total = 0;
  for (const auto& lb : boost) {
    if (lb) total += lb->wire_runs * kBoostRunWireBytes + 4;
  }
  return total;
}

struct WireSizeVisitor {
  std::uint32_t operator()(const SeedMsg& m) const noexcept {
    return kMsgHeaderBytes + kSignatureBytes +
           static_cast<std::uint32_t>(m.cells.size()) * kCellWireBytes +
           boost_wire_bytes(m.boost);
  }
  std::uint32_t operator()(const CellQueryMsg& m) const noexcept {
    return kMsgHeaderBytes +
           static_cast<std::uint32_t>(m.cells.size()) * kCellIdWireBytes;
  }
  std::uint32_t operator()(const CellReplyMsg& m) const noexcept {
    return kMsgHeaderBytes +
           static_cast<std::uint32_t>(m.cells.size()) * kCellWireBytes;
  }
  std::uint32_t operator()(const GossipDataMsg& m) const noexcept {
    return kMsgHeaderBytes + m.extra_bytes +
           static_cast<std::uint32_t>(m.cells.size()) * kCellWireBytes;
  }
  std::uint32_t operator()(const GossipIHaveMsg& m) const noexcept {
    return kMsgHeaderBytes + static_cast<std::uint32_t>(m.msg_ids.size()) * 8;
  }
  std::uint32_t operator()(const GossipIWantMsg& m) const noexcept {
    return kMsgHeaderBytes + static_cast<std::uint32_t>(m.msg_ids.size()) * 8;
  }
  std::uint32_t operator()(const GossipGraftMsg&) const noexcept {
    return kMsgHeaderBytes;
  }
  std::uint32_t operator()(const GossipPruneMsg&) const noexcept {
    return kMsgHeaderBytes;
  }
  std::uint32_t operator()(const DhtFindNodeMsg&) const noexcept {
    return kMsgHeaderBytes + 32;
  }
  std::uint32_t operator()(const DhtNodesMsg& m) const noexcept {
    // Each returned contact is an ENR-ish record: id + endpoint (~38 B).
    return kMsgHeaderBytes + static_cast<std::uint32_t>(m.nodes.size()) * 38;
  }
  std::uint32_t operator()(const DhtStoreMsg& m) const noexcept {
    return kMsgHeaderBytes + 32 +
           static_cast<std::uint32_t>(m.cells.size()) * kCellWireBytes;
  }
  std::uint32_t operator()(const DhtStoreAckMsg&) const noexcept {
    return kMsgHeaderBytes;
  }
  std::uint32_t operator()(const DhtFindValueMsg&) const noexcept {
    return kMsgHeaderBytes + 32;
  }
  std::uint32_t operator()(const DhtValueMsg& m) const noexcept {
    return kMsgHeaderBytes + 1 +
           static_cast<std::uint32_t>(m.cells.size()) * kCellWireBytes +
           static_cast<std::uint32_t>(m.closer.size()) * 38;
  }
};

template <typename T>
inline constexpr bool kCarriesCells =
    std::is_same_v<T, SeedMsg> || std::is_same_v<T, CellReplyMsg> ||
    std::is_same_v<T, GossipDataMsg> || std::is_same_v<T, DhtStoreMsg> ||
    std::is_same_v<T, DhtValueMsg>;

template <typename T>
inline constexpr bool kHasTags =
    std::is_same_v<T, SeedMsg> || std::is_same_v<T, CellReplyMsg>;

/// Compacts `v` by removing the sorted-ascending `positions` in one pass.
template <typename V>
void compact_out(V& v, const std::vector<std::uint32_t>& positions) {
  std::size_t write = 0;
  std::size_t drop_i = 0;
  for (std::size_t read = 0; read < v.size(); ++read) {
    if (drop_i < positions.size() && positions[drop_i] == read) {
      ++drop_i;
      continue;
    }
    v[write++] = v[read];
  }
  v.resize(write);
}

}  // namespace

std::uint32_t wire_size(const Message& msg) noexcept {
  return std::visit(WireSizeVisitor{}, msg);
}

std::uint32_t wire_size(const SeedMsg& msg) noexcept {
  return WireSizeVisitor{}(msg);
}

std::uint32_t wire_size(const CellQueryMsg& msg) noexcept {
  return WireSizeVisitor{}(msg);
}

std::uint32_t wire_size(const CellReplyMsg& msg) noexcept {
  return WireSizeVisitor{}(msg);
}

// message_class() below decodes the variant index with range comparisons, so
// it is only correct while the alternatives keep their declared order. Pin
// every index (and the total count) at compile time: reordering or inserting
// an alternative fails here, next to the mapping it would silently corrupt.
static_assert(std::variant_size_v<Message> == 14);
static_assert(std::is_same_v<std::variant_alternative_t<0, Message>, SeedMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<1, Message>, CellQueryMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<2, Message>, CellReplyMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<3, Message>, GossipDataMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<4, Message>, GossipIHaveMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<5, Message>, GossipIWantMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<6, Message>, GossipGraftMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<7, Message>, GossipPruneMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<8, Message>, DhtFindNodeMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<9, Message>, DhtNodesMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<10, Message>, DhtStoreMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<11, Message>, DhtStoreAckMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<12, Message>, DhtFindValueMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<13, Message>, DhtValueMsg>);

MsgClass message_class(const Message& msg) noexcept {
  // Variant alternatives are declared grouped by protocol, so the index
  // maps onto classes with two comparisons.
  const std::size_t i = msg.index();
  if (i == 0) return MsgClass::kSeed;
  if (i == 1) return MsgClass::kQuery;
  if (i == 2) return MsgClass::kResponse;
  if (i <= 7) return MsgClass::kGossip;
  return MsgClass::kDht;
}

const char* msg_class_name(MsgClass c) noexcept {
  switch (c) {
    case MsgClass::kSeed: return "seed";
    case MsgClass::kQuery: return "query";
    case MsgClass::kResponse: return "response";
    case MsgClass::kGossip: return "gossip";
    case MsgClass::kDht: return "dht";
  }
  return "unknown";
}

std::pair<std::size_t, std::size_t> LineBoost::range_of(NodeIndex node) const {
  const auto lo = std::lower_bound(
      entries.begin(), entries.end(), node,
      [](const auto& e, NodeIndex n) { return e.first < n; });
  auto hi = lo;
  while (hi != entries.end() && hi->first == node) ++hi;
  return {static_cast<std::size_t>(lo - entries.begin()),
          static_cast<std::size_t>(hi - entries.begin())};
}

std::size_t carried_cells(const Message& msg) noexcept {
  return std::visit(
      [](const auto& m) -> std::size_t {
        using T = std::remove_cvref_t<decltype(m)>;
        if constexpr (kCarriesCells<T>) {
          return m.cells.size();
        } else {
          return 0;
        }
      },
      msg);
}

void drop_cells(Message& msg, const std::vector<std::uint32_t>& positions) {
  std::visit(
      [&](auto& m) {
        using T = std::remove_cvref_t<decltype(m)>;
        if constexpr (kCarriesCells<T>) {
          if (positions.empty()) return;
          // positions are sorted ascending; compact in one pass. Proof tags
          // ride at the same positions as their cells, so a lossy packet
          // never misaligns surviving (cell, tag) pairs.
          compact_out(m.cells, positions);
          if constexpr (kHasTags<T>) {
            if (!m.tags.empty()) compact_out(m.tags, positions);
          }
        }
      },
      msg);
}

std::vector<std::uint64_t> proof_tags(std::uint64_t slot,
                                      const std::vector<CellId>& cells) {
  std::vector<std::uint64_t> tags;
  proof_tags(slot, cells, tags);
  return tags;
}

void proof_tags(std::uint64_t slot, const std::vector<CellId>& cells,
                std::vector<std::uint64_t>& out) {
  out.clear();
  out.reserve(cells.size());
  for (const CellId& c : cells) {
    out.push_back(crypto::sim_cell_tag(slot, c.row, c.col));
  }
}

}  // namespace pandas::net
