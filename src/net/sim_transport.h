#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/transport.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/parallel_engine.h"
#include "sim/topology.h"

/// Simulated UDP transport over the discrete-event engine.
///
/// Models, per the paper's testbed (§8.1):
///  - propagation: one-way delay from the latency topology (RTT/2);
///  - serialization: per-node uplink/downlink capacity (25 Mbps for nodes,
///    10 Gbps for the builder) with store-and-forward queueing at both NICs;
///  - loss: 3 % i.i.d. packet loss, except on builder seed messages, which
///    travel over reliable streams. Cell-carrying messages degrade by losing
///    individual cell-sized fragments (each ~2 cells per 1.2 KB packet);
///    control messages are dropped wholesale;
///  - per-packet framing overhead added to byte counts;
///  - dead nodes (fail-silent / free-riders, §4.1): mail to them vanishes
///    and they never send.
namespace pandas::net {

struct SimTransportConfig {
  double loss_rate = 0.03;
};

/// Uplink and downlink capacity of every node (§8.1)...
inline constexpr double kNodeLinkBps = 25e6;
/// ...and of the builder, a medium cloud instance (§4.1).
inline constexpr double kBuilderLinkBps = 10e9;

/// Per-node link-state chaos profile (fault injection orthogonal to node
/// behaviors; docs/FAULTS.md "Network chaos"). Every field is static for the
/// run except the Gilbert–Elliott burst state, which advances only on the
/// node's own sends (with its own loss stream), so chaos decisions are pure
/// functions of (time, per-node config) plus per-sender randomness — the
/// determinism contract of docs/SIMULATION.md holds under any --sim-threads.
struct LinkChaos {
  /// Partition membership: messages between different groups are dropped at
  /// send time while the per-slot partition window is open.
  std::uint8_t partition_group = 0;
  /// Link flapping (square wave): the link is down whenever
  /// ((now + flap_phase) mod flap_period) < flap_down.
  bool flap = false;
  sim::Time flap_period = 0;
  sim::Time flap_down = 0;
  sim::Time flap_phase = 0;
  /// Gilbert–Elliott two-state burst loss on this node's sends, one chain
  /// step per packet; the good state uses the config's base loss rate.
  bool burst = false;
  double ge_p_enter = 0.0;   ///< P(good -> bad) per packet
  double ge_p_exit = 0.0;    ///< P(bad -> good) per packet
  double ge_loss_bad = 0.0;  ///< per-packet loss in the bad state
  bool ge_bad = false;       ///< current chain state (evolves at send)
  /// Bandwidth collapse: up/down link rates multiplied by bw_factor while
  /// the per-slot collapse window is open.
  bool bw_collapse = false;
  double bw_factor = 1.0;
};

/// Per-node, per-message-class traffic and loss counters. The class axis is
/// what lets Fig 10's traffic decomposition (seed vs query vs response vs
/// gossip vs DHT bytes) come from the transport itself instead of being
/// re-derived in the harness.
struct TypedTrafficStats {
  struct Class {
    std::uint64_t msgs_sent = 0;
    std::uint64_t msgs_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    /// Cells carried by sent / delivered messages of this class. Updated by
    /// both transports, so "delivered-cell count" is directly comparable
    /// between a SimTransport run and a live UdpTransport run (the sim-vs-
    /// live parity check in harness/live_run.h keys off these).
    std::uint64_t cells_sent = 0;
    std::uint64_t cells_received = 0;
    /// Whole messages eaten by the loss model on this node's sends.
    std::uint64_t msgs_lost = 0;
    /// Cells stripped from degraded (partially lost) cell messages.
    std::uint64_t cells_lost = 0;
    /// Messages addressed to (or queued at) a dead node.
    std::uint64_t msgs_to_dead = 0;
  };
  std::array<Class, kMsgClassCount> by_class{};

  [[nodiscard]] const Class& of(MsgClass c) const noexcept {
    return by_class[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] Class& of(MsgClass c) noexcept {
    return by_class[static_cast<std::size_t>(c)];
  }
  void reset() { *this = TypedTrafficStats{}; }
  /// Adds `other`'s counts (network-wide aggregation).
  void merge(const TypedTrafficStats& other) noexcept;
};

/// Sharding (docs/SIMULATION.md "Parallel execution"): when constructed over
/// a sim::ParallelEngine, every node's events schedule and execute on its
/// home shard, all per-node state (links, stats, hop timings, pending pools)
/// is touched only from that shard, and cross-shard sends made inside a
/// parallel window are buffered per (source-shard, dest-shard) lane and
/// committed at the barrier in deterministic (arrival time, sender-lane key)
/// order. Ordering keys are drawn from the sender's lane at send time for
/// every send, so same-seed runs are byte-identical for any shard count.
class SimTransport final : public Transport,
                           public sim::ParallelEngine::LaneSource {
 public:
  SimTransport(sim::Engine& engine, const sim::Topology& topology,
               SimTransportConfig cfg = {});
  /// Shard-aware construction: registers itself as the engine's LaneSource.
  SimTransport(sim::ParallelEngine& engine, const sim::Topology& topology,
               SimTransportConfig cfg = {});

  /// Registers a node living on `vertex` with the given link capacities.
  /// Returns its NodeIndex. All nodes must be added before first send.
  NodeIndex add_node(std::uint32_t vertex, double up_bps, double down_bps);
  NodeIndex add_node(std::uint32_t vertex) {
    return add_node(vertex, kNodeLinkBps, kNodeLinkBps);
  }

  void send(NodeIndex from, NodeIndex to, Message msg) override;
  void set_handler(NodeIndex node, Handler handler) override;

  /// Transit breakdown of the message whose handler is currently running on
  /// `receiver` (obs/causal.h). Per-receiver storage: deliveries to a node
  /// happen only on its home shard, and the fields are written immediately
  /// before the handler is invoked, so reading this inside a handler is
  /// deterministic and race-free under any shard layout.
  [[nodiscard]] const obs::HopTiming* last_delivery(
      NodeIndex receiver) const noexcept override {
    return &last_hops_[receiver];
  }

  /// LaneSource: barrier commit / teardown of buffered cross-shard sends.
  std::size_t commit_lanes(sim::Time window_end) override;
  void clear_lanes() noexcept override;

  /// Marks a node dead (crash / free-rider): it neither sends nor receives.
  void set_dead(NodeIndex node, bool dead);
  [[nodiscard]] bool is_dead(NodeIndex node) const { return links_[node].dead; }

  /// Adds a fixed delay to every transmission leaving `node` (straggler
  /// fault model: an overloaded or badly-connected host that is correct but
  /// consistently late).
  void set_extra_delay(NodeIndex node, sim::Time delay);
  [[nodiscard]] sim::Time extra_delay(NodeIndex node) const {
    return links_[node].extra_delay;
  }

  /// Installs a link-state chaos profile for `node` (setup / driver phase
  /// only). With no profiles installed the chaos path costs one emptiness
  /// test per send and draws no randomness — chaos-off runs are
  /// byte-identical to a build without this feature.
  void set_link_chaos(NodeIndex node, const LinkChaos& chaos);
  [[nodiscard]] const LinkChaos* link_chaos(NodeIndex node) const noexcept {
    return chaos_.empty() ? nullptr : &chaos_[node];
  }
  /// Opens the partition / bandwidth-collapse windows (absolute sim times;
  /// start == end = closed). Must be called from the driver phase between
  /// parallel windows, when every shard clock is synced.
  void set_partition_window(sim::Time start, sim::Time end) {
    partition_start_ = start;
    partition_end_ = end;
  }
  void set_bw_window(sim::Time start, sim::Time end) {
    bw_start_ = start;
    bw_end_ = end;
  }

  [[nodiscard]] std::size_t node_count() const noexcept { return links_.size(); }
  [[nodiscard]] const TrafficStats& stats(NodeIndex node) const {
    return stats_[node];
  }
  [[nodiscard]] const TypedTrafficStats& typed_stats(NodeIndex node) const {
    return typed_stats_[node];
  }
  /// Network-wide per-class totals (sum over all registered nodes).
  [[nodiscard]] TypedTrafficStats typed_totals() const;
  void reset_stats();

  /// Optional trace hook: drops (loss, dead destinations) emit events on the
  /// sender's sink. The tracer must outlive the transport.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Resets link queues (e.g. at a slot boundary in long runs).
  void reset_links();

  [[nodiscard]] const SimTransportConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint32_t vertex_of(NodeIndex n) const { return links_[n].vertex; }

 private:
  struct Link {
    std::uint32_t vertex = 0;
    double up_bps = 0;
    double down_bps = 0;
    sim::Time up_busy_until = 0;
    sim::Time down_busy_until = 0;
    sim::Time extra_delay = 0;
    bool dead = false;
  };

  /// Applies the loss model with the sender's own loss stream; returns false
  /// if the whole message is lost. `cells_lost` reports cells stripped from
  /// a degraded (but delivered) cell-carrying message.
  bool apply_loss(NodeIndex from, Message& msg, std::uint32_t& cells_lost);

  /// Per-packet loss probability for `from`'s next packet, advancing its
  /// Gilbert–Elliott chain one step when the sender is burst-marked.
  double packet_loss_rate_(NodeIndex from);
  /// Link-level chaos verdict at send time: partition split or a flapped-down
  /// sender link eats the message.
  [[nodiscard]] bool chaos_drops_(NodeIndex from, NodeIndex to,
                                  sim::Time now) const;
  [[nodiscard]] static bool flapped_down_(const LinkChaos& c, sim::Time now) {
    if (!c.flap || c.flap_period <= 0) return false;
    return (now + c.flap_phase) % c.flap_period < c.flap_down;
  }
  /// Effective link rate under a bandwidth-collapse window.
  [[nodiscard]] double effective_bps_(NodeIndex node, double bps,
                                      sim::Time now) const;

  /// In-flight delivery state. Engine callbacks are size-bounded
  /// (sim::InlineCallback has no heap fallback) and a Message variant is far
  /// too large to capture, so each send parks its message and hop timing in
  /// this pool and the scheduled closures capture only {this, index}.
  struct Pending {
    Message msg{};
    sim::Time send_time = 0;
    sim::Time uplink_wait = 0;
    sim::Time tx_time = 0;
    /// One-way delay + straggler delay (loopback: straggler delay only).
    sim::Time propagation = 0;
    sim::Time downlink_wait = 0;  ///< filled at first-byte arrival
    sim::Time rx_time = 0;        ///< filled at first-byte arrival
    std::uint64_t total_bytes = 0;
    NodeIndex from = 0;
    NodeIndex to = 0;
    MsgClass cls{};
    std::int32_t next_free = -1;  ///< intrusive freelist link
  };
  using PendingIndex = std::int32_t;

  /// One freelist-pooled Pending store per shard: a slot is acquired,
  /// written and released only on the destination node's home shard.
  struct Pool {
    std::vector<Pending> slots;
    PendingIndex free_head = -1;
  };

  /// A cross-shard send buffered during a parallel window, carrying its
  /// pre-drawn sender-lane ordering key; committed at the barrier.
  struct LaneMsg {
    sim::Time arrival = 0;
    std::uint64_t key = 0;
    Pending p{};
  };

  [[nodiscard]] std::uint32_t shard_of_(NodeIndex n) const noexcept {
    return static_cast<std::uint32_t>(n) % shards_;
  }
  [[nodiscard]] sim::Engine& engine_of_(NodeIndex n) noexcept {
    return *engines_[shard_of_(n)];
  }

  [[nodiscard]] PendingIndex acquire_pending_(std::uint32_t shard);
  /// Drops the slot's message payload and returns it to the freelist.
  void release_pending_(std::uint32_t shard, PendingIndex i) noexcept;
  /// First-byte arrival at the receiver: dead check + downlink queueing.
  void arrival_(std::uint32_t shard, PendingIndex i);
  /// Final delivery stage: downlink serialization done, hand to the handler.
  void deliver_(std::uint32_t shard, PendingIndex i);

  /// The per-shard engines (a single entry when built over a plain Engine).
  std::vector<sim::Engine*> engines_;
  sim::ParallelEngine* parallel_ = nullptr;
  std::uint32_t shards_ = 1;
  const sim::Topology& topology_;
  SimTransportConfig cfg_;
  std::vector<Link> links_;
  std::vector<Handler> handlers_;
  std::vector<TrafficStats> stats_;
  std::vector<TypedTrafficStats> typed_stats_;
  std::vector<Pool> pools_;
  /// Per-sender loss streams (derived per node at add_node), so the loss
  /// sequence a sender draws is independent of every other node's sends —
  /// and therefore of the shard layout.
  std::vector<util::Xoshiro256> loss_rngs_;
  /// Outboxes, indexed src_shard * shards_ + dst_shard.
  std::vector<std::vector<LaneMsg>> lanes_;
  std::vector<LaneMsg> commit_scratch_;
  obs::Tracer* tracer_ = nullptr;
  /// Per-receiver hop timing of the in-flight delivery (last_delivery()).
  std::vector<obs::HopTiming> last_hops_;
  /// Link chaos profiles (empty = chaos off, the common case).
  std::vector<LinkChaos> chaos_;
  sim::Time partition_start_ = 0, partition_end_ = 0;
  sim::Time bw_start_ = 0, bw_end_ = 0;
};

}  // namespace pandas::net
