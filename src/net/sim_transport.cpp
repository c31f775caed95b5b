#include "net/sim_transport.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pandas::net {

namespace {

/// Bytes of UDP/IP framing charged per packet.
constexpr std::uint32_t kPerPacketOverhead = 28;

}  // namespace

void TypedTrafficStats::merge(const TypedTrafficStats& other) noexcept {
  for (std::size_t i = 0; i < by_class.size(); ++i) {
    auto& dst = by_class[i];
    const auto& src = other.by_class[i];
    dst.msgs_sent += src.msgs_sent;
    dst.msgs_received += src.msgs_received;
    dst.bytes_sent += src.bytes_sent;
    dst.bytes_received += src.bytes_received;
    dst.cells_sent += src.cells_sent;
    dst.cells_received += src.cells_received;
    dst.msgs_lost += src.msgs_lost;
    dst.cells_lost += src.cells_lost;
    dst.msgs_to_dead += src.msgs_to_dead;
  }
}

SimTransport::SimTransport(sim::Engine& engine, const sim::Topology& topology,
                           SimTransportConfig cfg)
    : engines_{&engine}, shards_(1), topology_(topology), cfg_(cfg) {
  pools_.resize(1);
  lanes_.resize(1);
}

SimTransport::SimTransport(sim::ParallelEngine& engine,
                           const sim::Topology& topology,
                           SimTransportConfig cfg)
    : parallel_(&engine),
      shards_(engine.shards()),
      topology_(topology),
      cfg_(cfg) {
  engines_.reserve(shards_);
  for (std::uint32_t s = 0; s < shards_; ++s) {
    engines_.push_back(&engine.shard(s));
  }
  pools_.resize(shards_);
  lanes_.resize(static_cast<std::size_t>(shards_) * shards_);
  engine.set_lane_source(this);
}

NodeIndex SimTransport::add_node(std::uint32_t vertex, double up_bps,
                                 double down_bps) {
  if (vertex >= topology_.vertex_count()) {
    throw std::invalid_argument("SimTransport::add_node: bad vertex");
  }
  Link link;
  link.vertex = vertex;
  link.up_bps = up_bps;
  link.down_bps = down_bps;
  links_.push_back(link);
  handlers_.emplace_back();
  stats_.emplace_back();
  typed_stats_.emplace_back();
  last_hops_.emplace_back();
  // One loss stream per sender, a pure function of (seed, node index):
  // independent of other nodes' sends and of the shard layout.
  const auto index = static_cast<std::uint64_t>(links_.size() - 1);
  loss_rngs_.push_back(engines_[0]->rng_stream(
      0x6c6f7373ULL /* "loss" */ ^ (index << 32)));
  return static_cast<NodeIndex>(links_.size() - 1);
}

TypedTrafficStats SimTransport::typed_totals() const {
  TypedTrafficStats total;
  for (const auto& s : typed_stats_) total.merge(s);
  return total;
}

void SimTransport::set_handler(NodeIndex node, Handler handler) {
  handlers_.at(node) = std::move(handler);
}

void SimTransport::set_dead(NodeIndex node, bool dead) {
  links_.at(node).dead = dead;
}

void SimTransport::set_extra_delay(NodeIndex node, sim::Time delay) {
  links_.at(node).extra_delay = delay;
}

void SimTransport::set_link_chaos(NodeIndex node, const LinkChaos& chaos) {
  if (node >= links_.size()) {
    throw std::out_of_range("SimTransport::set_link_chaos: unknown node");
  }
  if (chaos_.empty()) chaos_.resize(links_.size());
  chaos_[node] = chaos;
}

bool SimTransport::chaos_drops_(NodeIndex from, NodeIndex to,
                                sim::Time now) const {
  const LinkChaos& src = chaos_[from];
  if (now >= partition_start_ && now < partition_end_ &&
      src.partition_group != chaos_[to].partition_group) {
    return true;
  }
  return flapped_down_(src, now);
}

double SimTransport::packet_loss_rate_(NodeIndex from) {
  LinkChaos& c = chaos_[from];
  // One Gilbert–Elliott chain step per packet, drawn from the sender's own
  // loss stream (layout-invariant under sharding).
  if (c.ge_bad) {
    if (loss_rngs_[from].bernoulli(c.ge_p_exit)) c.ge_bad = false;
  } else {
    if (loss_rngs_[from].bernoulli(c.ge_p_enter)) c.ge_bad = true;
  }
  return c.ge_bad ? c.ge_loss_bad : cfg_.loss_rate;
}

double SimTransport::effective_bps_(NodeIndex node, double bps,
                                    sim::Time now) const {
  if (chaos_.empty() || !chaos_[node].bw_collapse) return bps;
  if (now < bw_start_ || now >= bw_end_) return bps;
  return bps * chaos_[node].bw_factor;
}

void SimTransport::reset_stats() {
  for (auto& s : stats_) s.reset();
  for (auto& s : typed_stats_) s.reset();
}

void SimTransport::reset_links() {
  for (auto& l : links_) {
    l.up_busy_until = 0;
    l.down_busy_until = 0;
  }
}

bool SimTransport::apply_loss(NodeIndex from, Message& msg,
                              std::uint32_t& cells_lost) {
  cells_lost = 0;
  // Burst-marked senders draw through the Gilbert–Elliott chain even when
  // the base loss rate is zero; everyone else keeps the i.i.d. model with
  // the exact draw sequence chaos-off runs make.
  const bool bursty = !chaos_.empty() && chaos_[from].burst;
  if (cfg_.loss_rate <= 0.0 && !bursty) return true;
  // Builder seed messages travel loss-free: the prototype seeds over libp2p
  // streams, which are reliable, and the UDP loss applies to the
  // peer-to-peer fetch exchanges. Otherwise the minimal policy (one copy of
  // exactly the reconstruction threshold) would deadlock, whereas the paper
  // reports it completing (§8.1).
  if (std::holds_alternative<SeedMsg>(msg)) return true;
  util::Xoshiro256& rng = loss_rngs_[from];
  const std::size_t cells = carried_cells(msg);
  const std::uint32_t size = wire_size(msg);
  if (cells >= 2 && size > kPacketPayloadBytes) {
    // Cell-carrying multi-packet message: cells travel ~2 per packet and are
    // lost per packet; the message "arrives" as long as any packet survives.
    const std::size_t cells_per_packet =
        std::max<std::size_t>(1, kPacketPayloadBytes / kCellWireBytes);
    std::vector<std::uint32_t> dropped;
    for (std::size_t base = 0; base < cells; base += cells_per_packet) {
      const double p = bursty ? packet_loss_rate_(from) : cfg_.loss_rate;
      if (rng.bernoulli(p)) {
        const std::size_t end = std::min(cells, base + cells_per_packet);
        for (std::size_t i = base; i < end; ++i) {
          dropped.push_back(static_cast<std::uint32_t>(i));
        }
      }
    }
    if (dropped.size() == cells) return false;  // every packet lost
    cells_lost = static_cast<std::uint32_t>(dropped.size());
    drop_cells(msg, dropped);
    return true;
  }
  // Small / control message: one packet, one Bernoulli draw. For messages
  // spanning a few packets without cells (e.g. large boost-only seeds) we
  // still draw once per packet and lose all-or-nothing on the first packet,
  // a deliberate simplification (headers ride the first packet).
  const double p = bursty ? packet_loss_rate_(from) : cfg_.loss_rate;
  return !rng.bernoulli(p);
}

void SimTransport::send(NodeIndex from, NodeIndex to, Message msg) {
  if (from >= links_.size() || to >= links_.size()) {
    throw std::out_of_range("SimTransport::send: unknown endpoint");
  }
  Link& src = links_[from];
  if (src.dead) return;  // dead nodes do not transmit

  const MsgClass cls = message_class(msg);
  const std::uint32_t payload = wire_size(msg);
  const std::uint32_t packets =
      std::max<std::uint32_t>(1, (payload + kPacketPayloadBytes - 1) / kPacketPayloadBytes);
  const std::uint64_t total_bytes =
      payload + static_cast<std::uint64_t>(packets) * kPerPacketOverhead;

  auto& sstats = stats_[from];
  sstats.msgs_sent += 1;
  sstats.bytes_sent += total_bytes;
  auto& styped = typed_stats_[from].of(cls);
  styped.msgs_sent += 1;
  styped.bytes_sent += total_bytes;
  styped.cells_sent += carried_cells(msg);

  // Uplink serialization (store-and-forward at the sender NIC). Sends run on
  // the sender's home shard; its engine holds the authoritative clock.
  sim::Engine& seng = engine_of_(from);
  const sim::Time now = seng.now();
  const sim::Time tx_time = static_cast<sim::Time>(
      std::ceil(static_cast<double>(total_bytes) * 8.0 /
                effective_bps_(from, src.up_bps, now) *
                static_cast<double>(sim::kSecond)));
  // Each per-hop segment the NIC model derives here is also kept for the
  // causal layer (obs::HopTiming via last_delivery()); the straggler service
  // delay folds into its propagation component.
  const sim::Time uplink_wait = std::max<sim::Time>(0, src.up_busy_until - now);
  // Straggler delay is service latency, not serialization: it postpones the
  // departure without occupying the uplink for other messages.
  const sim::Time departure =
      std::max(now, src.up_busy_until) + tx_time + src.extra_delay;
  src.up_busy_until = std::max(now, src.up_busy_until) + tx_time;

  // Link chaos (partition split, flapped-down sender link): the packet left
  // the NIC and died in the network. Pure function of (now, per-node
  // config) — no randomness, so chaos-off draw sequences are untouched.
  if (!chaos_.empty() && chaos_drops_(from, to, now)) {
    styped.msgs_lost += 1;
    if (tracer_ != nullptr) {
      obs::emit(tracer_->sink(from), obs::EventType::kMsgDropped, now, to,
                static_cast<std::int64_t>(cls));
    }
    return;
  }

  // Loss is decided at send time to keep the RNG stream independent of
  // event interleaving. A fully lost message still consumed uplink.
  std::uint32_t cells_lost = 0;
  if (!apply_loss(from, msg, cells_lost)) {
    styped.msgs_lost += 1;
    if (tracer_ != nullptr) {
      obs::emit(tracer_->sink(from), obs::EventType::kMsgDropped, now, to,
                static_cast<std::int64_t>(cls));
    }
    return;
  }
  if (cells_lost > 0) {
    styped.cells_lost += cells_lost;
    if (tracer_ != nullptr) {
      obs::emit(tracer_->sink(from), obs::EventType::kCellsDropped, now, to,
                cells_lost, static_cast<std::int64_t>(cls));
    }
  }
  const sim::Time extra = src.extra_delay;
  // The arrival event's ordering key comes from the sender's lane, drawn at
  // send time for EVERY surviving send (loopback, same-shard, cross-shard)
  // so each lane's key sequence is identical under any shard layout.
  const std::uint64_t key = seng.next_key(sim::Engine::lane_of_actor(from));
  const std::uint32_t sshard = shard_of_(from);

  if (to == from) {
    // Loopback: deliver after the serialization delay only. Same shard by
    // construction; tx_time >= 1 keeps departure strictly in the future.
    const PendingIndex pi = acquire_pending_(sshard);
    Pending& p = pools_[sshard].slots[static_cast<std::size_t>(pi)];
    p.msg = std::move(msg);
    p.send_time = now;
    p.uplink_wait = uplink_wait;
    p.tx_time = tx_time;
    p.total_bytes = total_bytes;
    p.from = from;
    p.to = to;
    p.cls = cls;
    p.propagation = extra;
    p.downlink_wait = 0;
    p.rx_time = 0;
    seng.schedule_keyed(departure, key,
                        [this, sshard, pi] { deliver_(sshard, pi); });
    return;
  }

  const sim::Time owd = topology_.owd(src.vertex, links_[to].vertex);
  const sim::Time arrival_start = departure + owd;
  const std::uint32_t dshard = shard_of_(to);

  if (dshard != sshard && parallel_ != nullptr && parallel_->in_window()) {
    // Cross-shard send inside a parallel window: the destination's queue and
    // pool belong to another running thread, so buffer the fully-formed
    // delivery in this (src, dst) lane; the barrier commits it. The
    // lookahead contract guarantees arrival_start lands beyond the window
    // (owd >= lookahead and tx_time >= 1).
    LaneMsg lm;
    lm.arrival = arrival_start;
    lm.key = key;
    lm.p.msg = std::move(msg);
    lm.p.send_time = now;
    lm.p.uplink_wait = uplink_wait;
    lm.p.tx_time = tx_time;
    lm.p.propagation = owd + extra;
    lm.p.total_bytes = total_bytes;
    lm.p.from = from;
    lm.p.to = to;
    lm.p.cls = cls;
    lanes_[static_cast<std::size_t>(sshard) * shards_ + dshard]
        .push_back(std::move(lm));
    return;
  }

  // Same-shard send, or a driver-phase send between windows (every shard
  // clock is synced then): file directly on the destination engine. Park the
  // message and its hop timing in the destination pool: engine callbacks are
  // size-bounded (InlineCallback) so the scheduled closures carry only
  // {this, shard, slot index}.
  const PendingIndex pi = acquire_pending_(dshard);
  Pending& p = pools_[dshard].slots[static_cast<std::size_t>(pi)];
  p.msg = std::move(msg);
  p.send_time = now;
  p.uplink_wait = uplink_wait;
  p.tx_time = tx_time;
  p.propagation = owd + extra;
  p.total_bytes = total_bytes;
  p.from = from;
  p.to = to;
  p.cls = cls;
  engines_[dshard]->schedule_keyed(arrival_start, key,
                                   [this, dshard, pi] { arrival_(dshard, pi); });
}

std::size_t SimTransport::commit_lanes(sim::Time window_end) {
  commit_scratch_.clear();
  for (auto& lane : lanes_) {
    for (auto& lm : lane) commit_scratch_.push_back(std::move(lm));
    lane.clear();  // keeps capacity: the lanes stay warm across windows
  }
  if (commit_scratch_.empty()) return 0;
  // Deterministic commit order: (arrival time, sender-lane key). Keys are
  // globally unique, so this is a total order; it also fixes the pool-slot
  // assignment, which keeps runs bit-for-bit debuggable.
  std::sort(commit_scratch_.begin(), commit_scratch_.end(),
            [](const LaneMsg& a, const LaneMsg& b) noexcept {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return a.key < b.key;
            });
  for (auto& lm : commit_scratch_) {
    if (lm.arrival <= window_end) {
      // A cross-shard effect inside its own window means the configured
      // lookahead overstates the minimum cross-node latency.
      throw std::logic_error("SimTransport::commit_lanes: lookahead violated");
    }
    const std::uint32_t dshard = shard_of_(lm.p.to);
    const PendingIndex pi = acquire_pending_(dshard);
    Pending& p = pools_[dshard].slots[static_cast<std::size_t>(pi)];
    const auto free_link = p.next_free;
    p = std::move(lm.p);
    p.next_free = free_link;
    engines_[dshard]->schedule_keyed(
        lm.arrival, lm.key, [this, dshard, pi] { arrival_(dshard, pi); });
  }
  const std::size_t committed = commit_scratch_.size();
  commit_scratch_.clear();
  return committed;
}

void SimTransport::clear_lanes() noexcept {
  for (auto& lane : lanes_) lane.clear();
  commit_scratch_.clear();
}

SimTransport::PendingIndex SimTransport::acquire_pending_(std::uint32_t shard) {
  Pool& pool = pools_[shard];
  if (pool.free_head != -1) {
    const PendingIndex i = pool.free_head;
    pool.free_head = pool.slots[static_cast<std::size_t>(i)].next_free;
    return i;
  }
  pool.slots.emplace_back();
  return static_cast<PendingIndex>(pool.slots.size() - 1);
}

void SimTransport::release_pending_(std::uint32_t shard,
                                    PendingIndex i) noexcept {
  Pool& pool = pools_[shard];
  Pending& p = pool.slots[static_cast<std::size_t>(i)];
  p.msg = Message{};  // drop payload buffers; the slot itself stays pooled
  p.next_free = pool.free_head;
  pool.free_head = i;
}

void SimTransport::arrival_(std::uint32_t shard, PendingIndex pi) {
  Pending& pd = pools_[shard].slots[static_cast<std::size_t>(pi)];
  Link& dst = links_[pd.to];
  sim::Engine& eng = *engines_[shard];
  if (dst.dead ||
      (!chaos_.empty() && flapped_down_(chaos_[pd.to], eng.now()))) {
    // Dead nodes do not receive; a flapped-down receiver link is a transient
    // equivalent. Counted on the receiver (whose shard this event runs on);
    // network-wide totals are unchanged.
    typed_stats_[pd.to].of(pd.cls).msgs_to_dead += 1;
    release_pending_(shard, pi);
    return;
  }
  // Receiver-side downlink serialization is applied when the first byte
  // arrives; we model it lazily by computing queueing against
  // down_busy_until now (event order at equal times is deterministic, so
  // this stays reproducible).
  const sim::Time rx_time = static_cast<sim::Time>(
      std::ceil(static_cast<double>(pd.total_bytes) * 8.0 /
                effective_bps_(pd.to, dst.down_bps, eng.now()) *
                static_cast<double>(sim::kSecond)));
  const sim::Time downlink_wait =
      std::max<sim::Time>(0, dst.down_busy_until - eng.now());
  const sim::Time delivered =
      std::max(eng.now(), dst.down_busy_until) + rx_time;
  dst.down_busy_until = delivered;
  pd.downlink_wait = downlink_wait;
  pd.rx_time = rx_time;
  // The delivery event's key comes from the receiver's lane: it is drawn on
  // the receiver's home shard, in the shard's (time, key) execution order,
  // which is itself layout-invariant.
  eng.schedule_as(sim::Engine::lane_of_actor(pd.to), delivered,
                  [this, shard, pi] { deliver_(shard, pi); });
}

void SimTransport::deliver_(std::uint32_t shard, PendingIndex pi) {
  Pending& p = pools_[shard].slots[static_cast<std::size_t>(pi)];
  if (links_[p.to].dead) {
    typed_stats_[p.to].of(p.cls).msgs_to_dead += 1;
    release_pending_(shard, pi);
    return;
  }
  const NodeIndex from = p.from;
  const NodeIndex to = p.to;
  const MsgClass cls = p.cls;
  last_hops_[to] = obs::HopTiming{p.send_time,   p.uplink_wait,   p.tx_time,
                                  p.propagation, p.downlink_wait, p.rx_time,
                                  engines_[shard]->now()};
  // Move the message out and free the slot before invoking the handler: the
  // handler may send (growing the pool and invalidating references).
  Message m = std::move(p.msg);
  release_pending_(shard, pi);
  auto& rstats = stats_[to];
  rstats.msgs_received += 1;
  rstats.bytes_received += wire_size(m);
  auto& rtyped = typed_stats_[to].of(cls);
  rtyped.msgs_received += 1;
  rtyped.bytes_received += wire_size(m);
  rtyped.cells_received += carried_cells(m);
  if (handlers_[to]) handlers_[to](from, std::move(m));
}

}  // namespace pandas::net
