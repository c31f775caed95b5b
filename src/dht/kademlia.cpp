#include "dht/kademlia.h"

#include <algorithm>
#include <set>

namespace pandas::dht {

namespace {
constexpr std::uint32_t kNodesPerReply = 16;
constexpr std::uint32_t kBucketSize = 16;  ///< k
constexpr std::uint32_t kAlpha = 3;        ///< lookup parallelism
constexpr std::uint32_t kReplication = 8;  ///< STORE copies (paper baseline: 8)
constexpr sim::Time kRpcTimeout = 400 * sim::kMillisecond;
constexpr std::uint32_t kMaxRounds = 24;   ///< iterative lookup round cap
}  // namespace

struct KademliaNode::Lookup {
  crypto::NodeId target;
  bool want_value = false;
  LookupCallback node_done;
  GetCallback value_done;

  /// Candidate shortlist sorted by distance to target.
  std::vector<net::NodeIndex> shortlist;
  std::set<net::NodeIndex> queried;
  std::set<net::NodeIndex> responded;
  std::uint32_t in_flight = 0;
  std::uint32_t rounds = 0;
  bool finished = false;
};

KademliaNode::KademliaNode(sim::Engine& engine, net::Transport& transport,
                           const net::Directory& directory, net::NodeIndex self)
    : engine_(engine),
      transport_(transport),
      directory_(directory),
      self_(self),
      table_(directory, self, kBucketSize) {}

void KademliaNode::bootstrap(const std::vector<net::NodeIndex>& contacts) {
  for (const auto c : contacts) table_.observe(c);
}

bool KademliaNode::handle(net::NodeIndex from, net::Message& msg) {
  table_.observe(from);
  if (auto* find = std::get_if<net::DhtFindNodeMsg>(&msg)) {
    net::DhtNodesMsg reply;
    reply.rpc_id = find->rpc_id;
    reply.nodes = table_.closest(find->target, kNodesPerReply);
    transport_.send(self_, from, std::move(reply));
    return true;
  }
  if (auto* store = std::get_if<net::DhtStoreMsg>(&msg)) {
    storage_[store->key] = store->cells;
    net::DhtStoreAckMsg ack;
    ack.rpc_id = store->rpc_id;
    transport_.send(self_, from, std::move(ack));
    return true;
  }
  if (auto* findv = std::get_if<net::DhtFindValueMsg>(&msg)) {
    net::DhtValueMsg reply;
    reply.rpc_id = findv->rpc_id;
    const auto it = storage_.find(findv->key);
    if (it != storage_.end()) {
      reply.found = true;
      reply.cells = it->second;
    } else {
      reply.closer = table_.closest(findv->key, kNodesPerReply);
    }
    transport_.send(self_, from, std::move(reply));
    return true;
  }

  // Replies: route to the pending RPC if any.
  std::uint64_t rpc_id = 0;
  if (const auto* nodes = std::get_if<net::DhtNodesMsg>(&msg)) {
    rpc_id = nodes->rpc_id;
  } else if (const auto* ack = std::get_if<net::DhtStoreAckMsg>(&msg)) {
    rpc_id = ack->rpc_id;
  } else if (const auto* value = std::get_if<net::DhtValueMsg>(&msg)) {
    rpc_id = value->rpc_id;
  } else {
    return false;  // not a DHT message
  }
  const auto it = pending_.find(rpc_id);
  if (it != pending_.end()) {
    auto rpc = it->second;
    pending_.erase(it);
    if (!rpc->done) {
      rpc->done = true;
      if (rpc->on_reply) rpc->on_reply(from, msg);
    }
  }
  return true;
}

void KademliaNode::arm_rpc_timeout(std::uint64_t rpc_id) {
  engine_.schedule_in_as(
      sim::Engine::lane_of_actor(self_), kRpcTimeout, [this, rpc_id]() {
        const auto it = pending_.find(rpc_id);
        if (it == pending_.end()) return;
        auto r = it->second;
        pending_.erase(it);
        if (!r->done) {
          r->done = true;
          if (r->on_timeout) r->on_timeout();
        }
      });
}

void KademliaNode::lookup(const crypto::NodeId& target, LookupCallback done) {
  start_lookup(target, /*want_value=*/false, std::move(done), nullptr);
}

void KademliaNode::get(const crypto::NodeId& key, GetCallback done) {
  // Serve locally stored values without touching the network.
  const auto it = storage_.find(key);
  if (it != storage_.end()) {
    auto cells = it->second;
    engine_.schedule_in_as(sim::Engine::lane_of_actor(self_), 0, [done = std::move(done), cells = std::move(cells)]() mutable {
      done(true, std::move(cells));
    });
    return;
  }
  start_lookup(key, /*want_value=*/true, nullptr, std::move(done));
}

void KademliaNode::store(const crypto::NodeId& key, std::vector<net::CellId> cells,
                         StoreCallback done) {
  lookup(key, [this, key, cells = std::move(cells), done = std::move(done)](
                  std::vector<net::NodeIndex> closest) mutable {
    if (closest.empty()) {
      if (done) done(false, 0);
      return;
    }
    if (closest.size() > kReplication) closest.resize(kReplication);
    auto acks = std::make_shared<std::uint32_t>(0);
    auto outstanding = std::make_shared<std::uint32_t>(
        static_cast<std::uint32_t>(closest.size()));
    for (const auto target : closest) {
      net::DhtStoreMsg msg;
      msg.rpc_id = next_rpc_id();
      msg.key = key;
      msg.cells = cells;

      auto rpc = std::make_shared<PendingRpc>();
      auto complete = [acks, outstanding, done](bool ok) {
        if (ok) ++(*acks);
        if (--(*outstanding) == 0 && done) done(*acks > 0, *acks);
      };
      rpc->on_reply = [complete](net::NodeIndex, net::Message&) { complete(true); };
      rpc->on_timeout = [complete]() { complete(false); };
      pending_[msg.rpc_id] = rpc;
      arm_rpc_timeout(msg.rpc_id);
      transport_.send(self_, target, std::move(msg));
    }
  });
}

void KademliaNode::start_lookup(const crypto::NodeId& target, bool want_value,
                                LookupCallback node_done, GetCallback value_done) {
  ++lookups_started;
  auto lk = std::make_shared<Lookup>();
  lk->target = target;
  lk->want_value = want_value;
  lk->node_done = std::move(node_done);
  lk->value_done = std::move(value_done);
  lk->shortlist = table_.closest(target, kBucketSize);
  if (lk->shortlist.empty()) {
    finish_lookup(lk);
    return;
  }
  lookup_step(lk);
}

void KademliaNode::lookup_step(const std::shared_ptr<Lookup>& lk) {
  if (lk->finished) return;
  if (lk->rounds >= kMaxRounds) {
    finish_lookup(lk);
    return;
  }
  ++lk->rounds;

  // Query up to alpha closest not-yet-queried candidates.
  std::uint32_t launched = 0;
  for (const auto candidate : lk->shortlist) {
    if (launched >= kAlpha) break;
    if (lk->queried.count(candidate) != 0) continue;
    lk->queried.insert(candidate);
    ++launched;
    ++lk->in_flight;

    const std::uint64_t rpc_id = next_rpc_id();
    auto rpc = std::make_shared<PendingRpc>();
    // The pending RPCs jointly own the lookup state; it is released once
    // every RPC has been answered or timed out.
    rpc->on_reply = [this, lk](net::NodeIndex from, net::Message& reply) {
      if (lk->finished) return;
      --lk->in_flight;
      if (auto* nodes = std::get_if<net::DhtNodesMsg>(&reply)) {
        on_lookup_reply(lk, from, nodes->nodes);
      } else if (auto* value = std::get_if<net::DhtValueMsg>(&reply)) {
        if (value->found && lk->want_value) {
          lk->finished = true;
          ++lookups_concluded;
          if (lk->value_done) {
            lk->value_done(true, std::move(value->cells));
          }
          return;
        }
        on_lookup_reply(lk, from, value->closer);
      }
    };
    rpc->on_timeout = [this, lk]() {
      if (lk->finished) return;
      --lk->in_flight;
      if (lk->in_flight == 0) lookup_step(lk);
    };
    pending_[rpc_id] = rpc;
    arm_rpc_timeout(rpc_id);

    if (lk->want_value) {
      net::DhtFindValueMsg msg;
      msg.rpc_id = rpc_id;
      msg.key = lk->target;
      transport_.send(self_, candidate, std::move(msg));
    } else {
      net::DhtFindNodeMsg msg;
      msg.rpc_id = rpc_id;
      msg.target = lk->target;
      transport_.send(self_, candidate, std::move(msg));
    }
  }

  if (launched == 0 && lk->in_flight == 0) {
    finish_lookup(lk);
  }
}

void KademliaNode::on_lookup_reply(const std::shared_ptr<Lookup>& lk,
                                   net::NodeIndex from,
                                   const std::vector<net::NodeIndex>& nodes) {
  lk->responded.insert(from);
  table_.observe(from);
  bool improved = false;
  for (const auto n : nodes) {
    if (n == self_) continue;
    table_.observe(n);
    if (std::find(lk->shortlist.begin(), lk->shortlist.end(), n) ==
        lk->shortlist.end()) {
      lk->shortlist.push_back(n);
      improved = true;
    }
  }
  if (improved) {
    std::sort(lk->shortlist.begin(), lk->shortlist.end(),
              [&](net::NodeIndex a, net::NodeIndex b) {
                return directory_.id_of(a).closer_to(lk->target,
                                                     directory_.id_of(b));
              });
    if (lk->shortlist.size() > 3 * kBucketSize) {
      lk->shortlist.resize(3 * kBucketSize);
    }
  }

  // Terminate when the k closest candidates have all been queried and no
  // query is outstanding; otherwise keep stepping.
  bool all_queried = true;
  std::uint32_t considered = 0;
  for (const auto n : lk->shortlist) {
    if (considered++ >= kBucketSize) break;
    if (lk->queried.count(n) == 0) {
      all_queried = false;
      break;
    }
  }
  if (all_queried && lk->in_flight == 0) {
    finish_lookup(lk);
  } else {
    lookup_step(lk);
  }
}

void KademliaNode::finish_lookup(const std::shared_ptr<Lookup>& lk) {
  if (lk->finished) return;
  lk->finished = true;
  ++lookups_concluded;
  if (lk->want_value) {
    if (lk->value_done) lk->value_done(false, {});
    return;
  }
  std::vector<net::NodeIndex> closest = lk->shortlist;
  std::sort(closest.begin(), closest.end(),
            [&](net::NodeIndex a, net::NodeIndex b) {
              return directory_.id_of(a).closer_to(lk->target, directory_.id_of(b));
            });
  if (closest.size() > kBucketSize) closest.resize(kBucketSize);
  if (lk->node_done) lk->node_done(std::move(closest));
}

}  // namespace pandas::dht
