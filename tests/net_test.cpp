#include <gtest/gtest.h>

#include "net/directory.h"
#include "net/messages.h"
#include "net/sim_transport.h"
#include "sim/engine.h"
#include "sim/topology.h"

namespace pandas::net {
namespace {

// ----------------------------------------------------------------- Messages

TEST(Messages, CellIdPacking) {
  const CellId c{511, 300};
  EXPECT_EQ(CellId::unpack(c.packed()), c);
  EXPECT_EQ(CellId::unpack(0x01ff012cu), (CellId{0x1ff, 0x12c}));
}

TEST(Messages, LineRefPacking) {
  EXPECT_NE(LineRef::row(5).packed(), LineRef::col(5).packed());
  EXPECT_EQ(LineRef::row(5).packed(), 5);
  EXPECT_EQ(LineRef::col(5).packed(), 0x8005);
}

TEST(Messages, WireSizeCellReply) {
  CellReplyMsg reply;
  reply.cells.resize(10);
  // 10 cells of 560 B each + header.
  EXPECT_EQ(wire_size(Message(reply)), kMsgHeaderBytes + 10 * kCellWireBytes);
  EXPECT_EQ(wire_size(reply), wire_size(Message(reply)));  // typed overload
}

TEST(Messages, WireSizeQueryIsSmall) {
  CellQueryMsg q;
  q.cells.resize(73);
  EXPECT_EQ(wire_size(Message(q)), kMsgHeaderBytes + 73 * kCellIdWireBytes);
  EXPECT_LT(wire_size(Message(q)), kPacketPayloadBytes);  // one packet
  EXPECT_EQ(wire_size(q), wire_size(Message(q)));
}

TEST(Messages, WireSizeSeedIncludesSignatureAndBoost) {
  SeedMsg seed;
  seed.cells.resize(4);
  auto lb = std::make_shared<LineBoost>();
  lb->line = LineRef::row(1);
  lb->entries = {{7, 0}, {7, 1}, {7, 2}, {9, 10}};  // two runs
  lb->finalize();
  EXPECT_EQ(lb->wire_runs, 2u);
  seed.boost.push_back(lb);
  EXPECT_EQ(wire_size(Message(seed)),
            kMsgHeaderBytes + kSignatureBytes + 4 * kCellWireBytes +
                2 * kBoostRunWireBytes + 4);
  EXPECT_EQ(wire_size(seed), wire_size(Message(seed)));
}

TEST(Messages, LineBoostRangeOf) {
  LineBoost lb;
  lb.entries = {{2, 0}, {5, 1}, {5, 2}, {5, 9}, {8, 3}};
  const auto [lo, hi] = lb.range_of(5);
  EXPECT_EQ(lo, 1u);
  EXPECT_EQ(hi, 4u);
  const auto [lo2, hi2] = lb.range_of(3);
  EXPECT_EQ(lo2, hi2);  // absent node: empty range
}

TEST(Messages, DropCells) {
  CellReplyMsg reply;
  for (std::uint16_t i = 0; i < 6; ++i) reply.cells.push_back({i, i});
  Message msg(reply);
  drop_cells(msg, {0, 3, 5});
  const auto& out = std::get<CellReplyMsg>(msg).cells;
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].row, 1);
  EXPECT_EQ(out[1].row, 2);
  EXPECT_EQ(out[2].row, 4);
}

TEST(Messages, CarriedCells) {
  CellQueryMsg q;
  q.cells.resize(5);
  EXPECT_EQ(carried_cells(Message(q)), 0u);  // queries carry ids, not cells
  CellReplyMsg r;
  r.cells.resize(5);
  EXPECT_EQ(carried_cells(Message(r)), 5u);
  GossipGraftMsg g;
  EXPECT_EQ(carried_cells(Message(g)), 0u);
}

// ------------------------------------------------------------ SimTransport

struct Fixture {
  sim::Engine engine{1};
  sim::Topology topology;
  SimTransportConfig cfg;
  std::unique_ptr<SimTransport> transport;

  explicit Fixture(double loss = 0.0) {
    sim::TopologyConfig tc;
    tc.vertices = 50;
    topology = sim::Topology::generate(tc, 3);
    cfg.loss_rate = loss;
    transport = std::make_unique<SimTransport>(engine, topology, cfg);
  }
};

TEST(SimTransport, DeliversWithPropagationDelay) {
  Fixture f;
  const auto a = f.transport->add_node(0);
  const auto b = f.transport->add_node(1);
  sim::Time delivered = -1;
  NodeIndex from = kInvalidNode;
  f.transport->set_handler(b, [&](NodeIndex src, Message&&) {
    delivered = f.engine.now();
    from = src;
  });
  CellQueryMsg q;
  q.cells.resize(3);
  f.transport->send(a, b, Message(q));
  f.engine.run();
  ASSERT_GE(delivered, 0);
  EXPECT_EQ(from, a);
  // Delivery >= one-way propagation delay.
  EXPECT_GE(delivered, f.topology.owd(0, 1));
}

TEST(SimTransport, SerializationDelayScalesWithSize) {
  Fixture f;
  const auto a = f.transport->add_node(0);
  const auto b = f.transport->add_node(0);  // same vertex: min latency
  sim::Time t_small = -1, t_big = -1;

  f.transport->set_handler(b, [&](NodeIndex, Message&& m) {
    if (carried_cells(m) < 100) {
      t_small = f.engine.now();
    } else {
      t_big = f.engine.now();
    }
  });
  CellReplyMsg small;
  small.cells.resize(1);
  CellReplyMsg big;
  big.cells.resize(2000);  // ~1.1 MB at 25 Mbps -> ~360 ms
  f.transport->send(a, b, Message(small));
  f.engine.run();
  const sim::Time small_done = t_small;
  f.transport->reset_links();
  f.transport->send(a, b, Message(big));
  f.engine.run();
  ASSERT_GE(small_done, 0);
  ASSERT_GE(t_big, 0);
  EXPECT_GT(t_big - small_done, sim::from_ms(300));
}

TEST(SimTransport, UplinkQueuesSequentialSends) {
  // Two large messages from one sender: the second's delivery is delayed by
  // the first's serialization (store-and-forward at the sender NIC).
  Fixture f;
  const auto a = f.transport->add_node(0);
  const auto b = f.transport->add_node(0);
  const auto c = f.transport->add_node(0);
  sim::Time t_b = -1, t_c = -1;
  f.transport->set_handler(b, [&](NodeIndex, Message&&) { t_b = f.engine.now(); });
  f.transport->set_handler(c, [&](NodeIndex, Message&&) { t_c = f.engine.now(); });
  CellReplyMsg big;
  big.cells.resize(1000);
  f.transport->send(a, b, Message(big));
  f.transport->send(a, c, Message(big));
  f.engine.run();
  ASSERT_GE(t_b, 0);
  ASSERT_GE(t_c, 0);
  EXPECT_GT(t_c, t_b + sim::from_ms(100));
}

TEST(SimTransport, LossDropsControlMessages) {
  Fixture f(0.5);
  const auto a = f.transport->add_node(0);
  const auto b = f.transport->add_node(1);
  int delivered = 0;
  f.transport->set_handler(b, [&](NodeIndex, Message&&) { ++delivered; });
  const int sent = 1000;
  for (int i = 0; i < sent; ++i) {
    GossipGraftMsg g;
    f.transport->send(a, b, Message(g));
  }
  f.engine.run();
  EXPECT_GT(delivered, 350);
  EXPECT_LT(delivered, 650);
}

TEST(SimTransport, LossDegradesCellMessagesGracefully) {
  Fixture f(0.1);
  const auto a = f.transport->add_node(0);
  const auto b = f.transport->add_node(1);
  std::size_t received_cells = 0;
  int messages = 0;
  f.transport->set_handler(b, [&](NodeIndex, Message&& m) {
    ++messages;
    received_cells += carried_cells(m);
  });
  const int sent = 50;
  const std::size_t cells_each = 500;
  for (int i = 0; i < sent; ++i) {
    CellReplyMsg r;
    r.cells.resize(cells_each);
    f.transport->send(a, b, Message(r));
  }
  f.engine.run();
  // ~10% of cells lost, but nearly all messages arrive (some cells always
  // survive a 250-packet burst).
  EXPECT_EQ(messages, sent);
  const double loss = 1.0 - static_cast<double>(received_cells) /
                                static_cast<double>(sent * cells_each);
  EXPECT_NEAR(loss, 0.1, 0.04);
}

TEST(SimTransport, DeadNodesNeitherSendNorReceive) {
  Fixture f;
  const auto a = f.transport->add_node(0);
  const auto b = f.transport->add_node(1);
  int delivered = 0;
  f.transport->set_handler(b, [&](NodeIndex, Message&&) { ++delivered; });
  f.transport->set_dead(b, true);
  f.transport->send(a, b, Message(GossipGraftMsg{}));
  f.engine.run();
  EXPECT_EQ(delivered, 0);

  f.transport->set_dead(b, false);
  f.transport->set_dead(a, true);
  f.transport->send(a, b, Message(GossipGraftMsg{}));
  f.engine.run();
  EXPECT_EQ(delivered, 0);

  f.transport->set_dead(a, false);
  f.transport->send(a, b, Message(GossipGraftMsg{}));
  f.engine.run();
  EXPECT_EQ(delivered, 1);
}

TEST(SimTransport, StatsAccounting) {
  Fixture f;
  const auto a = f.transport->add_node(0);
  const auto b = f.transport->add_node(1);
  f.transport->set_handler(b, [](NodeIndex, Message&&) {});
  CellQueryMsg q;
  q.cells.resize(10);
  const auto size = wire_size(Message(q));
  f.transport->send(a, b, Message(q));
  f.engine.run();
  EXPECT_EQ(f.transport->stats(a).msgs_sent, 1u);
  EXPECT_GE(f.transport->stats(a).bytes_sent, size);  // + packet overhead
  EXPECT_EQ(f.transport->stats(b).msgs_received, 1u);
  f.transport->reset_stats();
  EXPECT_EQ(f.transport->stats(a).msgs_sent, 0u);
}

TEST(Directory, DeterministicIds) {
  const auto d1 = Directory::create(10);
  const auto d2 = Directory::create(10);
  EXPECT_EQ(d1.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(d1.id_of(i), d2.id_of(i));
  }
  EXPECT_NE(d1.id_of(0), d1.id_of(1));
}

}  // namespace
}  // namespace pandas::net
