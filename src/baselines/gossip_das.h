#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/custody.h"
#include "core/fetcher.h"
#include "core/params.h"
#include "core/query_buffer.h"
#include "core/view.h"
#include "gossip/gossipsub.h"
#include "net/transport.h"
#include "sim/engine.h"

/// GossipSub-based DAS baseline (paper §8.1).
///
/// Custody is quantized into fixed units: unit u owns rows [8u, 8u+8) and
/// columns [8u, 8u+8), giving 2n/16 = 64 units for the Danksharding matrix.
/// Every node is pseudo-randomly assigned one unit and subscribes to the
/// unit's GossipSub channel (~N/64 members). The builder injects copies of
/// each unit's cells directly to channel members (its egress budget equals
/// PANDAS's redundant policy); dissemination then relies on in-channel
/// gossip instead of PANDAS's explicit consolidation. The sampling phase is
/// identical to PANDAS (73 random cells fetched with the adaptive fetcher,
/// targets resolved through the unit-based assignment).
namespace pandas::baselines {

/// Computes the unit-based custody assignment for all nodes.
/// Unit of node i = H(seed, node) mod unit_count.
[[nodiscard]] std::vector<core::AssignedLines> unit_assignments(
    const core::ProtocolParams& params, const net::Directory& directory,
    const crypto::Digest& seed);

/// Lines of custody unit `u`.
[[nodiscard]] core::AssignedLines unit_lines(const core::ProtocolParams& params,
                                             std::uint32_t unit);

[[nodiscard]] inline std::uint32_t unit_count(const core::ProtocolParams& p) {
  return 2 * p.matrix_n / (p.rows_per_node + p.cols_per_node);
}

class GossipDasNode {
 public:
  struct SlotRecord {
    std::optional<sim::Time> custody_time;   ///< unit fully held
    std::optional<sim::Time> sampling_time;
    std::uint32_t messages = 0;   ///< gossip + fetch messages, both directions
    std::uint64_t bytes = 0;
  };

  GossipDasNode(sim::Engine& engine, net::Transport& transport,
                net::NodeIndex self, const core::ProtocolParams& params);

  void configure(const core::AssignmentTable* table, const core::View* view,
                 std::uint32_t unit);
  [[nodiscard]] gossip::GossipSubNode& gossipsub() noexcept { return *gossip_; }
  [[nodiscard]] std::uint32_t unit() const noexcept { return unit_; }

  void begin_slot(std::uint64_t slot);
  bool handle_message(net::NodeIndex from, net::Message& msg);

  [[nodiscard]] const SlotRecord& record() const noexcept { return record_; }
  [[nodiscard]] const core::CustodyState& custody() const noexcept {
    return custody_;
  }

 private:
  void on_unit_data(net::NodeIndex from, const net::GossipDataMsg& msg);
  void on_query(net::NodeIndex from, net::CellQueryMsg&& msg);
  void on_reply(net::NodeIndex from, net::CellReplyMsg&& msg);
  void start_sampling();
  void ingest(std::span<const net::CellId> cells, net::NodeIndex reply_from,
              bool is_reply);
  void check_completion();

  sim::Engine& engine_;
  net::Transport& transport_;
  net::NodeIndex self_;
  core::ProtocolParams params_;
  const core::AssignmentTable* table_ = nullptr;
  const core::View* view_ = nullptr;
  std::uint32_t unit_ = 0;
  util::Xoshiro256 sample_rng_;
  std::unique_ptr<gossip::GossipSubNode> gossip_;

  std::uint64_t slot_ = 0;
  std::uint64_t generation_ = 0;
  sim::Time slot_start_ = 0;
  /// CauseId sequence for originated queries (obs/causal.h).
  std::uint32_t cause_seq_ = 0;
  core::CustodyState custody_;
  std::vector<net::CellId> samples_;
  std::unordered_set<std::uint32_t> missing_samples_;
  std::shared_ptr<core::AdaptiveFetcher> fetcher_;
  /// Queries waiting for cells not yet held (served like PandasNode's).
  core::QueryBuffer pending_;
  bool fallback_armed_ = false;
  SlotRecord record_;
};

}  // namespace pandas::baselines
