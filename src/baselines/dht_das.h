#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/params.h"
#include "dht/kademlia.h"
#include "net/transport.h"
#include "sim/engine.h"

/// Kademlia-DHT-based DAS baseline (paper §8.1, [12]).
///
/// Lines are linearized and split into parcels of 64 adjacent cells; the
/// builder `put()`s every parcel at the 8 peers closest to the parcel key
/// (Kademlia's replication; iterative multi-hop lookups + STOREs). Sampling
/// nodes resolve each of their 73 random cells to its covering parcel and
/// `get()` it from the DHT. No consolidation phase exists; nodes are
/// responsible for the key ranges Kademlia assigns them.
///
/// Parcelling covers each cell once (row-major), so the builder's egress at
/// replication=8 equals PANDAS's redundant budget, as the paper prescribes
/// for a fair comparison.
namespace pandas::baselines {

inline constexpr std::uint32_t kParcelCells = 64;

/// Key of the parcel covering row-cells [parcel*64, parcel*64+64) of `row`.
[[nodiscard]] crypto::NodeId parcel_key(std::uint64_t slot, std::uint16_t row,
                                        std::uint16_t parcel);

/// The parcel (row, index) covering a cell.
[[nodiscard]] inline std::pair<std::uint16_t, std::uint16_t> parcel_of(
    net::CellId cell) {
  return {cell.row, static_cast<std::uint16_t>(cell.col / kParcelCells)};
}

/// Cells of a parcel.
[[nodiscard]] std::vector<net::CellId> parcel_cells(
    const core::ProtocolParams& params, std::uint16_t row, std::uint16_t parcel);

/// The builder side: stores every parcel of the slot into the DHT.
class DhtDasBuilder {
 public:
  DhtDasBuilder(sim::Engine& engine, net::Transport& transport,
                const net::Directory& directory, net::NodeIndex self,
                const core::ProtocolParams& params);

  [[nodiscard]] dht::KademliaNode& dht() noexcept { return *dht_; }

  /// Launches all parcel stores. `max_concurrent` bounds in-flight store
  /// operations (the builder pipelines lookups over its fat uplink).
  void seed_slot(std::uint64_t slot, std::uint32_t max_concurrent = 256);

  [[nodiscard]] std::uint32_t stores_completed() const noexcept {
    return completed_;
  }
  [[nodiscard]] std::uint32_t stores_failed() const noexcept { return failed_; }
  [[nodiscard]] bool done() const noexcept {
    return launched_ == total_ && completed_ + failed_ == total_;
  }

 private:
  void launch_next();

  sim::Engine& engine_;
  const core::ProtocolParams params_;
  std::unique_ptr<dht::KademliaNode> dht_;
  std::uint64_t slot_ = 0;
  std::uint32_t next_parcel_ = 0;
  std::uint32_t total_ = 0;
  std::uint32_t launched_ = 0;
  std::uint32_t completed_ = 0;
  std::uint32_t failed_ = 0;
};

/// The node side: participates in the DHT and samples via get().
class DhtDasNode {
 public:
  struct SlotRecord {
    std::optional<sim::Time> sampling_time;
    std::uint32_t gets_launched = 0;
    std::uint32_t gets_ok = 0;
    std::uint32_t gets_failed = 0;
    std::uint32_t retries_scheduled = 0;
    std::uint32_t retries_fired = 0;
  };

  DhtDasNode(sim::Engine& engine, net::Transport& transport,
             const net::Directory& directory, net::NodeIndex self,
             const core::ProtocolParams& params);

  [[nodiscard]] dht::KademliaNode& dht() noexcept { return *dht_; }

  void begin_slot(std::uint64_t slot);
  /// Starts fetching samples (the harness calls this when the node learns of
  /// the slot, i.e. at slot start after the builder began storing).
  void start_sampling(std::uint32_t max_retries = 8);
  bool handle_message(net::NodeIndex from, net::Message& msg);

  [[nodiscard]] const SlotRecord& record() const noexcept { return record_; }

 private:
  void fetch_parcel(std::uint16_t row, std::uint16_t parcel,
                    std::uint32_t retries_left);
  void on_cells(std::span<const net::CellId> cells);
  void check_completion();

  sim::Engine& engine_;
  core::ProtocolParams params_;
  net::NodeIndex self_;
  util::Xoshiro256 sample_rng_;
  std::unique_ptr<dht::KademliaNode> dht_;

  std::uint64_t slot_ = 0;
  std::uint64_t generation_ = 0;
  sim::Time slot_start_ = 0;
  std::vector<net::CellId> samples_;
  std::unordered_set<std::uint32_t> missing_samples_;
  SlotRecord record_;
};

}  // namespace pandas::baselines
