#include <gtest/gtest.h>

#include <algorithm>

#include "dht/kademlia.h"
#include "net/sim_transport.h"

namespace pandas::dht {
namespace {

struct DhtNet {
  sim::Engine engine{11};
  sim::Topology topology;
  std::unique_ptr<net::SimTransport> transport;
  net::Directory directory;
  std::vector<std::unique_ptr<KademliaNode>> nodes;

  explicit DhtNet(std::uint32_t n, double loss = 0.0)
      : directory(net::Directory::create(n)) {
    sim::TopologyConfig tc;
    tc.vertices = 300;
    topology = sim::Topology::generate(tc, 13);
    net::SimTransportConfig tcfg;
    tcfg.loss_rate = loss;
    transport = std::make_unique<net::SimTransport>(engine, topology, tcfg);
    for (std::uint32_t i = 0; i < n; ++i) {
      transport->add_node(i % topology.vertex_count());
    }
    std::vector<net::NodeIndex> all(n);
    for (std::uint32_t i = 0; i < n; ++i) all[i] = i;
    for (std::uint32_t i = 0; i < n; ++i) {
      nodes.push_back(
          std::make_unique<KademliaNode>(engine, *transport, directory, i));
      nodes[i]->bootstrap(all);
      transport->set_handler(i, [this, i](net::NodeIndex from, net::Message&& m) {
        nodes[i]->handle(from, m);
      });
    }
  }

  /// Ground truth: the k nodes whose IDs are XOR-closest to target.
  std::vector<net::NodeIndex> true_closest(const crypto::NodeId& target,
                                           std::uint32_t k) const {
    std::vector<net::NodeIndex> all(nodes.size());
    for (std::uint32_t i = 0; i < all.size(); ++i) all[i] = i;
    std::sort(all.begin(), all.end(), [&](net::NodeIndex a, net::NodeIndex b) {
      return directory.id_of(a).closer_to(target, directory.id_of(b));
    });
    all.resize(k);
    return all;
  }
};

TEST(RoutingTable, ObserveAndClosest) {
  const auto dir = net::Directory::create(200);
  RoutingTable table(dir, 0, 16);
  for (net::NodeIndex i = 1; i < 200; ++i) table.observe(i);
  EXPECT_GT(table.contact_count(), 50u);  // far buckets overflow, near kept

  const auto target = crypto::NodeId::from_label(500);
  const auto closest = table.closest(target, 8);
  ASSERT_EQ(closest.size(), 8u);
  // Returned contacts are sorted by XOR distance.
  for (std::size_t i = 1; i < closest.size(); ++i) {
    EXPECT_TRUE(dir.id_of(closest[i - 1]).closer_to(target, dir.id_of(closest[i])) ||
                dir.id_of(closest[i - 1]) == dir.id_of(closest[i]));
  }
}

TEST(RoutingTable, SelfNeverInserted) {
  const auto dir = net::Directory::create(10);
  RoutingTable table(dir, 3, 16);
  table.observe(3);
  EXPECT_EQ(table.contact_count(), 0u);
}

TEST(RoutingTable, BucketCapacityEnforced) {
  const auto dir = net::Directory::create(4000);
  RoutingTable table(dir, 0, 4);
  for (net::NodeIndex i = 1; i < 4000; ++i) table.observe(i);
  for (int b = 0; b < 256; ++b) {
    EXPECT_LE(table.bucket(b).size(), 4u);
  }
}

TEST(Kademlia, LookupFindsTrueClosest) {
  DhtNet net(60);
  const auto target = crypto::NodeId::from_label(9999);
  std::vector<net::NodeIndex> result;
  net.nodes[0]->lookup(target, [&](std::vector<net::NodeIndex> closest) {
    result = std::move(closest);
  });
  net.engine.run_until(20 * sim::kSecond);
  ASSERT_FALSE(result.empty());
  const auto truth = net.true_closest(target, 4);
  // The top-4 found must match ground truth (full bootstrap -> exact).
  ASSERT_GE(result.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(result[i], truth[i]) << i;
}

TEST(Kademlia, StoreThenGet) {
  DhtNet net(50);
  const auto key = crypto::NodeId::from_label(777);
  std::vector<net::CellId> parcel{{1, 2}, {3, 4}};

  bool stored = false;
  std::uint32_t acks = 0;
  net.nodes[0]->store(key, parcel, [&](bool ok, std::uint32_t a) {
    stored = ok;
    acks = a;
  });
  net.engine.run_until(30 * sim::kSecond);
  EXPECT_TRUE(stored);
  EXPECT_GE(acks, 6u);  // replication 8, minus possible stragglers

  // The value must live at the true closest nodes.
  const auto truth = net.true_closest(key, 4);
  int holding = 0;
  for (const auto n : truth) {
    if (net.nodes[n]->storage().count(key) != 0) ++holding;
  }
  EXPECT_GE(holding, 3);

  // A different node can retrieve it.
  bool found = false;
  std::vector<net::CellId> got;
  net.nodes[17]->get(key, [&](bool ok, std::vector<net::CellId> cells) {
    found = ok;
    got = std::move(cells);
  });
  net.engine.run_until(net.engine.now() + 30 * sim::kSecond);
  EXPECT_TRUE(found);
  EXPECT_EQ(got, parcel);
}

TEST(Kademlia, GetMissingKeyReturnsNotFound) {
  DhtNet net(30);
  bool called = false;
  bool found = true;
  net.nodes[5]->get(crypto::NodeId::from_label(123456),
                    [&](bool ok, std::vector<net::CellId>) {
                      called = true;
                      found = ok;
                    });
  net.engine.run_until(30 * sim::kSecond);
  EXPECT_TRUE(called);
  EXPECT_FALSE(found);
}

TEST(Kademlia, GetServedLocallyWithoutNetwork) {
  DhtNet net(20);
  const auto key = crypto::NodeId::from_label(42);
  // Plant the value directly via a STORE message.
  net::DhtStoreMsg msg;
  msg.rpc_id = 1;
  msg.key = key;
  msg.cells = {{9, 9}};
  net::Message m(msg);
  net.nodes[3]->handle(4, m);

  bool found = false;
  net.nodes[3]->get(key, [&](bool ok, std::vector<net::CellId>) { found = ok; });
  net.engine.run_until(net.engine.now() + sim::kSecond);
  EXPECT_TRUE(found);
}

TEST(Kademlia, SurvivesPacketLoss) {
  DhtNet net(50, 0.1);
  const auto key = crypto::NodeId::from_label(31337);
  bool stored = false;
  net.nodes[2]->store(key, {{1, 1}}, [&](bool ok, std::uint32_t) { stored = ok; });
  net.engine.run_until(60 * sim::kSecond);
  EXPECT_TRUE(stored);

  bool found = false;
  net.nodes[30]->get(key, [&](bool ok, std::vector<net::CellId>) { found = ok; });
  net.engine.run_until(net.engine.now() + 60 * sim::kSecond);
  EXPECT_TRUE(found);
}

TEST(Kademlia, LookupTerminatesWhenAllTimeout) {
  // A lone node whose contacts are all dead: the lookup must finish (with
  // whatever it has) rather than hang.
  DhtNet net(10);
  for (std::uint32_t i = 1; i < 10; ++i) net.transport->set_dead(i, true);
  bool called = false;
  net.nodes[0]->lookup(crypto::NodeId::from_label(5),
                       [&](std::vector<net::NodeIndex>) { called = true; });
  net.engine.run_until(120 * sim::kSecond);
  EXPECT_TRUE(called);
}

}  // namespace
}  // namespace pandas::dht
