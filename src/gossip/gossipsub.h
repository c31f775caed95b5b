#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/transport.h"
#include "sim/engine.h"
#include "util/prng.h"

/// GossipSub implementation (Vyzovitis et al. [60]) — the overlay Ethereum
/// uses for block/attestation dissemination (§2) and the substrate of the
/// paper's GossipSub-DAS baseline (§8.1).
///
/// Implements the v1.0 mechanics that matter for dissemination latency and
/// message overhead: per-topic full-message meshes of degree D maintained
/// with GRAFT/PRUNE, eager push within the mesh, a rolling message cache,
/// and lazy IHAVE/IWANT gossip to non-mesh topic members on each heartbeat.
/// Peer scoring and flood-publishing extensions of v1.1 are out of scope —
/// the paper's baseline uses default mesh parameters (fanout 8).
namespace pandas::gossip {

struct GossipSubConfig {
  std::uint32_t mesh_degree = 8;   ///< D — target mesh size (paper: 8)
  std::uint32_t mesh_low = 6;      ///< D_low
  std::uint32_t mesh_high = 12;    ///< D_high
};

class GossipSubNode {
 public:
  /// Callback invoked exactly once per distinct message id, on first
  /// delivery (whether via eager push or IWANT recovery).
  using DeliveryCallback =
      std::function<void(net::NodeIndex from, const net::GossipDataMsg& msg)>;

  GossipSubNode(sim::Engine& engine, net::Transport& transport,
                net::NodeIndex self, GossipSubConfig cfg = {});

  /// Makes `peer` known for `topic` (i.e. we could GRAFT it / gossip to it).
  /// In Ethereum peers learn topic membership via the discovery layer; the
  /// harness wires it directly.
  void add_topic_peer(std::uint64_t topic, net::NodeIndex peer);

  /// Joins a topic: grafts up to D known topic peers into the mesh.
  void subscribe(std::uint64_t topic);

  [[nodiscard]] bool subscribed(std::uint64_t topic) const {
    return topics_.count(topic) != 0;
  }

  /// Publishes a message (sent to the full mesh; the publisher may also be a
  /// non-subscriber such as the builder, in which case it sends to up to D
  /// known topic peers — "fanout" publishing).
  void publish(net::GossipDataMsg msg);

  /// Dispatch entry point; returns true if the message was gossip traffic.
  bool handle(net::NodeIndex from, net::Message& msg);

  void set_delivery_callback(DeliveryCallback cb) { deliver_ = std::move(cb); }

  /// Starts the recurring heartbeat (mesh maintenance + lazy gossip).
  void start_heartbeat();
  void stop() { running_ = false; }

  [[nodiscard]] const std::set<net::NodeIndex>& mesh(std::uint64_t topic) const;
  [[nodiscard]] bool seen(std::uint64_t msg_id) const {
    return seen_.count(msg_id) != 0;
  }

 private:
  struct TopicState {
    std::vector<net::NodeIndex> peers;      // known topic members
    std::set<net::NodeIndex> mesh;          // full-message peers
  };

  void heartbeat();
  void deliver_and_forward(net::NodeIndex from, net::GossipDataMsg&& msg);
  TopicState& topic_state(std::uint64_t topic) { return topic_state_[topic]; }

  sim::Engine& engine_;
  net::Transport& transport_;
  net::NodeIndex self_;
  GossipSubConfig cfg_;
  util::Xoshiro256 rng_;
  bool running_ = false;
  DeliveryCallback deliver_;

  std::unordered_set<std::uint64_t> topics_;  // subscriptions
  std::unordered_map<std::uint64_t, TopicState> topic_state_;
  std::unordered_set<std::uint64_t> seen_;
  /// Message cache: id -> payload, plus windowed history for IHAVE.
  std::unordered_map<std::uint64_t, net::GossipDataMsg> mcache_;
  std::deque<std::vector<std::uint64_t>> history_;
};

}  // namespace pandas::gossip
