#include "gossip/gossipsub.h"

#include <algorithm>

namespace pandas::gossip {

namespace {

constexpr std::uint32_t kGossipDegree = 6;   ///< IHAVE targets per heartbeat
constexpr sim::Time kHeartbeatInterval = sim::kSecond;
constexpr std::uint32_t kHistoryGossip = 3;  ///< windows advertised in IHAVE
constexpr std::uint32_t kHistoryLength = 5;  ///< windows in the message cache

}  // namespace

GossipSubNode::GossipSubNode(sim::Engine& engine, net::Transport& transport,
                             net::NodeIndex self, GossipSubConfig cfg)
    : engine_(engine),
      transport_(transport),
      self_(self),
      cfg_(cfg),
      rng_(engine.rng_stream(0x676f737369ULL ^ (static_cast<std::uint64_t>(self) << 20))) {}

void GossipSubNode::add_topic_peer(std::uint64_t topic, net::NodeIndex peer) {
  if (peer == self_) return;
  auto& st = topic_state(topic);
  if (std::find(st.peers.begin(), st.peers.end(), peer) == st.peers.end()) {
    st.peers.push_back(peer);
  }
}

void GossipSubNode::subscribe(std::uint64_t topic) {
  topics_.insert(topic);
  auto& st = topic_state(topic);
  // Graft up to D random known topic peers.
  std::vector<net::NodeIndex> candidates = st.peers;
  rng_.shuffle(candidates);
  for (const auto peer : candidates) {
    if (st.mesh.size() >= cfg_.mesh_degree) break;
    if (st.mesh.insert(peer).second) {
      transport_.send(self_, peer, net::GossipGraftMsg{topic});
    }
  }
}

void GossipSubNode::publish(net::GossipDataMsg msg) {
  seen_.insert(msg.msg_id);
  mcache_[msg.msg_id] = msg;
  if (!history_.empty()) history_.back().push_back(msg.msg_id);

  const auto& st = topic_state(msg.topic);
  if (subscribed(msg.topic) && !st.mesh.empty()) {
    for (const auto peer : st.mesh) {
      transport_.send(self_, peer, msg);
    }
    return;
  }
  // Fanout publish (non-subscriber, e.g. the builder): up to D topic peers.
  std::vector<net::NodeIndex> candidates = st.peers;
  rng_.shuffle(candidates);
  if (candidates.size() > cfg_.mesh_degree) candidates.resize(cfg_.mesh_degree);
  for (const auto peer : candidates) {
    transport_.send(self_, peer, msg);
  }
}

void GossipSubNode::deliver_and_forward(net::NodeIndex from,
                                        net::GossipDataMsg&& msg) {
  if (!seen_.insert(msg.msg_id).second) return;  // duplicate
  ++msg.hops;
  mcache_[msg.msg_id] = msg;
  if (!history_.empty()) history_.back().push_back(msg.msg_id);

  if (deliver_) deliver_(from, msg);

  if (!subscribed(msg.topic)) return;
  const auto& st = topic_state(msg.topic);
  for (const auto peer : st.mesh) {
    if (peer == from) continue;
    transport_.send(self_, peer, msg);
  }
}

bool GossipSubNode::handle(net::NodeIndex from, net::Message& msg) {
  if (auto* data = std::get_if<net::GossipDataMsg>(&msg)) {
    deliver_and_forward(from, std::move(*data));
    return true;
  }
  if (auto* graft = std::get_if<net::GossipGraftMsg>(&msg)) {
    auto& st = topic_state(graft->topic);
    add_topic_peer(graft->topic, from);
    if (subscribed(graft->topic) && st.mesh.size() < cfg_.mesh_high) {
      st.mesh.insert(from);
    } else {
      transport_.send(self_, from, net::GossipPruneMsg{graft->topic});
    }
    return true;
  }
  if (auto* prune = std::get_if<net::GossipPruneMsg>(&msg)) {
    topic_state(prune->topic).mesh.erase(from);
    return true;
  }
  if (auto* ihave = std::get_if<net::GossipIHaveMsg>(&msg)) {
    net::GossipIWantMsg want;
    for (const auto id : ihave->msg_ids) {
      if (seen_.count(id) == 0) want.msg_ids.push_back(id);
    }
    if (!want.msg_ids.empty()) {
      transport_.send(self_, from, std::move(want));
    }
    return true;
  }
  if (auto* iwant = std::get_if<net::GossipIWantMsg>(&msg)) {
    for (const auto id : iwant->msg_ids) {
      const auto it = mcache_.find(id);
      if (it != mcache_.end()) {
        transport_.send(self_, from, it->second);
      }
    }
    return true;
  }
  return false;
}

void GossipSubNode::start_heartbeat() {
  if (running_) return;
  running_ = true;
  history_.emplace_back();
  // Desynchronize heartbeats across nodes.
  const sim::Time offset = static_cast<sim::Time>(
      rng_.uniform(static_cast<std::uint64_t>(kHeartbeatInterval)));
  engine_.schedule_in_as(sim::Engine::lane_of_actor(self_), offset, [this]() { heartbeat(); });
}

void GossipSubNode::heartbeat() {
  if (!running_) return;

  for (const auto topic : topics_) {
    auto& st = topic_state(topic);
    // Mesh maintenance.
    if (st.mesh.size() < cfg_.mesh_low) {
      std::vector<net::NodeIndex> candidates;
      for (const auto p : st.peers) {
        if (st.mesh.count(p) == 0) candidates.push_back(p);
      }
      rng_.shuffle(candidates);
      for (const auto p : candidates) {
        if (st.mesh.size() >= cfg_.mesh_degree) break;
        st.mesh.insert(p);
        transport_.send(self_, p, net::GossipGraftMsg{topic});
      }
    } else if (st.mesh.size() > cfg_.mesh_high) {
      std::vector<net::NodeIndex> members(st.mesh.begin(), st.mesh.end());
      rng_.shuffle(members);
      while (st.mesh.size() > cfg_.mesh_degree && !members.empty()) {
        const auto victim = members.back();
        members.pop_back();
        st.mesh.erase(victim);
        transport_.send(self_, victim, net::GossipPruneMsg{topic});
      }
    }

    // Lazy gossip: IHAVE for recent windows to non-mesh topic peers.
    std::vector<std::uint64_t> recent;
    const std::size_t windows =
        std::min<std::size_t>(history_.size(), kHistoryGossip);
    for (std::size_t w = history_.size() - windows; w < history_.size(); ++w) {
      for (const auto id : history_[w]) {
        const auto it = mcache_.find(id);
        if (it != mcache_.end() && it->second.topic == topic) {
          recent.push_back(id);
        }
      }
    }
    if (!recent.empty()) {
      std::vector<net::NodeIndex> targets;
      for (const auto p : st.peers) {
        if (st.mesh.count(p) == 0) targets.push_back(p);
      }
      rng_.shuffle(targets);
      if (targets.size() > kGossipDegree) targets.resize(kGossipDegree);
      for (const auto t : targets) {
        net::GossipIHaveMsg ihave;
        ihave.topic = topic;
        ihave.msg_ids = recent;
        transport_.send(self_, t, std::move(ihave));
      }
    }
  }

  // Shift the message-cache history window.
  history_.emplace_back();
  while (history_.size() > kHistoryLength) {
    for (const auto id : history_.front()) mcache_.erase(id);
    history_.pop_front();
  }

  engine_.schedule_in_as(sim::Engine::lane_of_actor(self_), kHeartbeatInterval,
                         [this]() { heartbeat(); });
}

const std::set<net::NodeIndex>& GossipSubNode::mesh(std::uint64_t topic) const {
  static const std::set<net::NodeIndex> kEmpty;
  const auto it = topic_state_.find(topic);
  return it == topic_state_.end() ? kEmpty : it->second.mesh;
}

}  // namespace pandas::gossip
