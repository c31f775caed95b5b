#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "crypto/node_id.h"
#include "obs/causal.h"
#include "util/bitmap.h"

/// Wire message taxonomy for PANDAS and the two baselines, plus wire-size
/// accounting used by the bandwidth model and the evaluation's byte counts.
///
/// The simulator does not serialize actual bytes: every message type knows
/// the size it would occupy on the wire (paper parameters: 512 B cell
/// payload + 48 B KZG proof = 560 B per cell; 64 B signatures; small fixed
/// headers), which drives link serialization delays and traffic statistics.
namespace pandas::net {

/// Dense per-simulation node index (0..N-1). The builder gets its own index.
using NodeIndex = std::uint32_t;
inline constexpr NodeIndex kInvalidNode = ~0u;

/// Identifies one line (row or column) of the extended blob matrix.
struct LineRef {
  enum class Kind : std::uint8_t { kRow = 0, kCol = 1 };
  Kind kind = Kind::kRow;
  std::uint16_t index = 0;

  [[nodiscard]] bool operator==(const LineRef&) const = default;
  [[nodiscard]] auto operator<=>(const LineRef&) const = default;

  /// Packs into 16 bits (kind in the top bit) for maps and sorting.
  [[nodiscard]] std::uint16_t packed() const noexcept {
    return static_cast<std::uint16_t>((static_cast<std::uint16_t>(kind) << 15) |
                                      index);
  }
  [[nodiscard]] static LineRef row(std::uint16_t i) noexcept {
    return {Kind::kRow, i};
  }
  [[nodiscard]] static LineRef col(std::uint16_t i) noexcept {
    return {Kind::kCol, i};
  }
};

/// Identifies a cell by (row, col) in the extended matrix, packed in 32 bits.
struct CellId {
  std::uint16_t row = 0;
  std::uint16_t col = 0;

  [[nodiscard]] bool operator==(const CellId&) const = default;
  [[nodiscard]] auto operator<=>(const CellId&) const = default;
  [[nodiscard]] std::uint32_t packed() const noexcept {
    return (static_cast<std::uint32_t>(row) << 16) | col;
  }
  [[nodiscard]] static CellId unpack(std::uint32_t v) noexcept {
    return {static_cast<std::uint16_t>(v >> 16),
            static_cast<std::uint16_t>(v & 0xffff)};
  }
};

/// Wire-size constants (paper §3 and §6.1).
inline constexpr std::uint32_t kCellPayloadBytes = 512;
inline constexpr std::uint32_t kCellProofBytes = 48;
inline constexpr std::uint32_t kCellWireBytes = kCellPayloadBytes + kCellProofBytes;
inline constexpr std::uint32_t kSignatureBytes = 64;
inline constexpr std::uint32_t kMsgHeaderBytes = 40;   // ids, slot, type, auth
inline constexpr std::uint32_t kCellIdWireBytes = 4;
/// Wire bytes per consolidation-boost run (node ref + cell range).
inline constexpr std::uint32_t kBoostRunWireBytes = 8;
/// UDP payload budget per packet (fragmentation granularity for loss).
inline constexpr std::uint32_t kPacketPayloadBytes = 1200;

/// Which peers were seeded which cells of one line — the consolidation boost
/// map CB of §6.2. Built once per line by the builder and shared (by
/// pointer) across all seed messages that reference the line.
///
/// Entries record primary-copy placements as (recipient, cell position
/// within the line), sorted by recipient then position. Positions are the
/// column for a row line and the row for a column line. Because the builder
/// seeds contiguous parcels, entries compress on the wire to
/// (node, first, len) runs; `wire_runs` caches that count.
struct LineBoost {
  LineRef line;
  std::vector<std::pair<NodeIndex, std::uint16_t>> entries;
  std::uint32_t wire_runs = 0;

  /// Recomputes `wire_runs` from `entries` (call after filling them).
  void finalize() noexcept {
    wire_runs = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (i == 0 || entries[i].first != entries[i - 1].first ||
          entries[i].second != entries[i - 1].second + 1) {
        ++wire_runs;
      }
    }
  }

  /// Entries for one recipient: [first, last) half-open range.
  [[nodiscard]] std::pair<std::size_t, std::size_t> range_of(NodeIndex node) const;
};

using BoostMap = std::vector<std::shared_ptr<const LineBoost>>;

/// ---- PANDAS protocol messages (§6) ----

/// Builder -> node: initial seed cells plus optional boost map. Carries the
/// proposer's signature binding the builder identity (§6.1).
///
/// `tags` holds one simulated KZG proof tag per cell (parallel to `cells`;
/// see crypto::sim_cell_tag). The 48 proof bytes are already part of
/// kCellWireBytes, so tags do not change wire sizes — they only let
/// receivers verify cells at presence level. An empty or short vector means
/// the proofs are missing (hardened receivers reject such cells).
struct SeedMsg {
  std::uint64_t slot = 0;
  std::vector<CellId> cells;
  std::vector<std::uint64_t> tags;
  BoostMap boost;
  /// Causal metadata (obs/causal.h), stamped by the sender. Like all causal
  /// fields below it is excluded from wire_size: a production header would
  /// carry ~16 B of it per message, noise against a 560 B cell.
  obs::CauseId cause{};
};

/// Node -> node: request for specific cells (consolidation or sampling).
struct CellQueryMsg {
  std::uint64_t slot = 0;
  std::vector<CellId> cells;
  obs::CauseId cause{};
  std::uint32_t round = 0;  ///< fetch round that issued the query (1-based)
  bool redraw = false;      ///< re-query after a corrupt reply
};

/// Node -> node: cells in response to a query (possibly delayed — §6.2's
/// buffered queries). `tags` as in SeedMsg.
///
/// The causal fields echo the answered query's context (its CauseId, round,
/// redraw flag, and transit as measured at the server), so the requester can
/// reconstruct the full request -> serve -> reply chain without per-query
/// bookkeeping — late buffered replies included.
struct CellReplyMsg {
  std::uint64_t slot = 0;
  std::vector<CellId> cells;
  std::vector<std::uint64_t> tags;
  obs::CauseId cause{};
  obs::CauseId parent{};       ///< the query being answered
  std::uint32_t round = 0;     ///< echoed query round
  bool redraw = false;         ///< echoed redraw flag
  bool buffered = false;       ///< served from the buffered-query path
  obs::HopTiming query_hop{};  ///< the query's transit, seen at the server
};

/// ---- Block dissemination / GossipSub (§2, baselines §8.1) ----

struct GossipDataMsg {
  std::uint64_t topic = 0;
  std::uint64_t msg_id = 0;
  std::uint64_t slot = 0;
  /// Cells carried (empty for the block-dissemination topic).
  std::vector<CellId> cells;
  /// Extra opaque payload bytes (e.g. the block body).
  std::uint32_t extra_bytes = 0;
  std::uint32_t hops = 0;
};

struct GossipIHaveMsg {
  std::uint64_t topic = 0;
  std::vector<std::uint64_t> msg_ids;
};

struct GossipIWantMsg {
  std::vector<std::uint64_t> msg_ids;
};

struct GossipGraftMsg {
  std::uint64_t topic = 0;
};

struct GossipPruneMsg {
  std::uint64_t topic = 0;
};

/// ---- Kademlia DHT messages (baseline §8.1, [47]) ----

struct DhtFindNodeMsg {
  std::uint64_t rpc_id = 0;
  crypto::NodeId target;
};

struct DhtNodesMsg {
  std::uint64_t rpc_id = 0;
  std::vector<NodeIndex> nodes;
};

struct DhtStoreMsg {
  std::uint64_t rpc_id = 0;
  crypto::NodeId key;
  std::vector<CellId> cells;  // the stored parcel
};

struct DhtStoreAckMsg {
  std::uint64_t rpc_id = 0;
};

struct DhtFindValueMsg {
  std::uint64_t rpc_id = 0;
  crypto::NodeId key;
};

struct DhtValueMsg {
  std::uint64_t rpc_id = 0;
  bool found = false;
  std::vector<CellId> cells;        // parcel content when found
  std::vector<NodeIndex> closer;    // closer nodes when not found
};

using Message =
    std::variant<SeedMsg, CellQueryMsg, CellReplyMsg, GossipDataMsg,
                 GossipIHaveMsg, GossipIWantMsg, GossipGraftMsg, GossipPruneMsg,
                 DhtFindNodeMsg, DhtNodesMsg, DhtStoreMsg, DhtStoreAckMsg,
                 DhtFindValueMsg, DhtValueMsg>;

/// Coarse message classes for per-type traffic accounting (Fig 10's traffic
/// decomposition comes straight from the transport's per-class counters).
enum class MsgClass : std::uint8_t {
  kSeed = 0,   ///< builder seeding (SeedMsg)
  kQuery,      ///< cell queries (CellQueryMsg)
  kResponse,   ///< cell replies (CellReplyMsg)
  kGossip,     ///< all GossipSub control + data
  kDht,        ///< all Kademlia RPCs
};
inline constexpr std::size_t kMsgClassCount = 5;

[[nodiscard]] MsgClass message_class(const Message& msg) noexcept;

/// Stable lowercase label ("seed", "query", "response", "gossip", "dht").
[[nodiscard]] const char* msg_class_name(MsgClass c) noexcept;

/// Bytes this message would occupy on the wire (excluding UDP/IP framing,
/// which the transport adds per packet).
[[nodiscard]] std::uint32_t wire_size(const Message& msg) noexcept;
/// Typed overloads for the fetch-path messages, so accounting code can size a
/// message without copying it into a Message. Same rules as the variant
/// overload (one shared visitor).
[[nodiscard]] std::uint32_t wire_size(const SeedMsg& msg) noexcept;
[[nodiscard]] std::uint32_t wire_size(const CellQueryMsg& msg) noexcept;
[[nodiscard]] std::uint32_t wire_size(const CellReplyMsg& msg) noexcept;

/// Number of data cells the message carries (0 for control messages).
/// Cell-carrying messages degrade gracefully under packet loss: individual
/// cells are lost rather than the whole message (see SimTransport).
[[nodiscard]] std::size_t carried_cells(const Message& msg) noexcept;

/// Removes the cells at the given positions (used by the loss model). For
/// messages with per-cell proof tags, tags at the same positions are dropped
/// too, keeping the vectors parallel.
void drop_cells(Message& msg, const std::vector<std::uint32_t>& positions);

/// Honest proof tags for `cells` at `slot` (crypto::sim_cell_tag per cell).
[[nodiscard]] std::vector<std::uint64_t> proof_tags(
    std::uint64_t slot, const std::vector<CellId>& cells);

/// Scratch-buffer overload: fills `out` (cleared first) instead of
/// allocating a fresh vector. Hot paths that tag cells repeatedly — builder
/// seeding, fetcher replies — reuse one buffer across calls so the tag step
/// stays allocation-free once the buffer has warmed up.
void proof_tags(std::uint64_t slot, const std::vector<CellId>& cells,
                std::vector<std::uint64_t>& out);

}  // namespace pandas::net
