#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dht/routing_table.h"
#include "net/directory.h"
#include "net/transport.h"
#include "sim/engine.h"

/// Kademlia DHT node [47]: iterative, parallel lookups over unreliable UDP.
///
/// This is the substrate for the DHT-based DAS baseline the paper compares
/// against (§8.1): the builder `put()`s 64-cell parcels at the 8 peers
/// closest to the parcel key, and sampling nodes `get()` them with multi-hop
/// iterative routing. It is also used as the stand-in for Ethereum's
/// discovery DHT when examples need explicit ENR lookups.
namespace pandas::dht {

class KademliaNode {
 public:
  using StoreCallback = std::function<void(bool ok, std::uint32_t acks)>;
  using GetCallback =
      std::function<void(bool found, std::vector<net::CellId> cells)>;
  using LookupCallback = std::function<void(std::vector<net::NodeIndex> closest)>;

  KademliaNode(sim::Engine& engine, net::Transport& transport,
               const net::Directory& directory, net::NodeIndex self);

  /// Seeds the routing table. Passing every node of the network yields the
  /// steady-state table of a long-running deployment (buckets keep at most
  /// k contacts per distance, preserving Kademlia's log-structure).
  void bootstrap(const std::vector<net::NodeIndex>& contacts);

  /// Dispatch entry point for DHT messages received by the owner.
  /// Returns true if the message was a DHT message and was consumed.
  bool handle(net::NodeIndex from, net::Message& msg);

  /// Iterative FIND_NODE: converges on the k closest nodes to `target`.
  void lookup(const crypto::NodeId& target, LookupCallback done);

  /// Stores `cells` under `key` at the kReplication closest nodes.
  void store(const crypto::NodeId& key, std::vector<net::CellId> cells,
             StoreCallback done);

  /// Iterative FIND_VALUE for `key`.
  void get(const crypto::NodeId& key, GetCallback done);

  [[nodiscard]] RoutingTable& table() noexcept { return table_; }

  /// Diagnostics: iterative lookups started / concluded (callback invoked).
  std::uint32_t lookups_started = 0;
  std::uint32_t lookups_concluded = 0;
  [[nodiscard]] net::NodeIndex index() const noexcept { return self_; }

  /// Local value store (exposed for tests and custody accounting).
  [[nodiscard]] const std::map<crypto::NodeId, std::vector<net::CellId>>&
  storage() const noexcept {
    return storage_;
  }

 private:
  struct Lookup;

  void start_lookup(const crypto::NodeId& target, bool want_value,
                    LookupCallback node_done, GetCallback value_done);
  void lookup_step(const std::shared_ptr<Lookup>& lk);
  void on_lookup_reply(const std::shared_ptr<Lookup>& lk, net::NodeIndex from,
                       const std::vector<net::NodeIndex>& nodes);
  void finish_lookup(const std::shared_ptr<Lookup>& lk);

  std::uint64_t next_rpc_id() noexcept { return rpc_counter_++; }

  sim::Engine& engine_;
  net::Transport& transport_;
  const net::Directory& directory_;
  net::NodeIndex self_;
  RoutingTable table_;

  std::map<crypto::NodeId, std::vector<net::CellId>> storage_;

  /// Arms the fixed RPC timeout for `rpc_id`.
  void arm_rpc_timeout(std::uint64_t rpc_id);

  // rpc_id -> continuation invoked on matching reply (or dropped on timeout)
  struct PendingRpc {
    std::function<void(net::NodeIndex from, net::Message& reply)> on_reply;
    std::function<void()> on_timeout;
    bool done = false;
  };
  std::unordered_map<std::uint64_t, std::shared_ptr<PendingRpc>> pending_;
  std::uint64_t rpc_counter_ = 1;
};

}  // namespace pandas::dht
