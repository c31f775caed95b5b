#include <gtest/gtest.h>

#include "core/builder.h"
#include "core/node.h"
#include "core/seeding.h"
#include "net/sim_transport.h"

namespace pandas::core {
namespace {

/// Focused protocol tests for PandasNode behaviours: buffered queries,
/// fallback timer, sample accounting — on a tiny hand-wired network.
struct ProtoNet {
  ProtocolParams params;
  sim::Engine engine{21};
  sim::Topology topology;
  std::unique_ptr<net::SimTransport> transport;
  net::Directory directory;
  std::unique_ptr<AssignmentTable> table;
  View view;
  std::vector<std::unique_ptr<PandasNode>> nodes;

  explicit ProtoNet(std::uint32_t n = 40, double loss = 0.0)
      : directory(net::Directory::create(n)) {
    params.matrix_k = 16;
    params.matrix_n = 32;
    params.rows_per_node = 2;
    params.cols_per_node = 2;
    params.samples_per_node = 8;
    sim::TopologyConfig tc;
    tc.vertices = 100;
    topology = sim::Topology::generate(tc, 31);
    net::SimTransportConfig tcfg;
    tcfg.loss_rate = loss;
    transport = std::make_unique<net::SimTransport>(engine, topology, tcfg);
    for (std::uint32_t i = 0; i < n; ++i) transport->add_node(i % 100);
    table = std::make_unique<AssignmentTable>(params, directory, epoch_seed(9, 0));
    view = View::full(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      auto node = std::make_unique<PandasNode>(*engine_ptr(), *transport, i, params);
      node->configure_epoch(table.get());
      node->set_view(&view);
      nodes.push_back(std::move(node));
      transport->set_handler(i, [this, i](net::NodeIndex from, net::Message&& m) {
        nodes[i]->handle_message(from, m);
      });
    }
  }
  sim::Engine* engine_ptr() { return &engine; }
};

TEST(PandasNode, SeedIngestRecordsTimeAndCells) {
  ProtoNet net;
  net.nodes[0]->begin_slot(1);
  net::SeedMsg seed;
  seed.slot = 1;
  const auto& lines = net.table->of(0);
  for (std::uint16_t c = 0; c < 8; ++c) seed.cells.push_back({lines.rows[0], c});
  seed.tags = net::proof_tags(seed.slot, seed.cells);
  net::Message msg(seed);
  net.nodes[0]->handle_message(net::kInvalidNode - 1, msg);
  ASSERT_TRUE(net.nodes[0]->record().seed_time.has_value());
  EXPECT_EQ(net.nodes[0]->record().seed_cells, 8u);
  EXPECT_EQ(net.nodes[0]->custody().line_count(net::LineRef::row(lines.rows[0])),
            8u);
  EXPECT_TRUE(net.nodes[0]->fetcher()->started());
}

TEST(PandasNode, StaleSlotMessagesIgnored) {
  ProtoNet net;
  net.nodes[0]->begin_slot(5);
  net::SeedMsg seed;
  seed.slot = 4;  // stale
  seed.cells.push_back({0, 0});
  net::Message msg(seed);
  net.nodes[0]->handle_message(1, msg);
  EXPECT_FALSE(net.nodes[0]->record().seed_time.has_value());
}

TEST(PandasNode, QueryServedImmediatelyWhenHeld) {
  ProtoNet net;
  auto& a = *net.nodes[0];
  auto& b = *net.nodes[1];
  a.begin_slot(1);
  b.begin_slot(1);

  // Give node 1 a cell of one of its rows via a seed.
  const auto row = net.table->of(1).rows[0];
  net::SeedMsg seed;
  seed.slot = 1;
  seed.cells.push_back({row, 3});
  seed.tags = net::proof_tags(seed.slot, seed.cells);
  net::Message sm(seed);
  b.handle_message(99, sm);

  // Node 0 queries node 1 for it.
  net::CellQueryMsg q;
  q.slot = 1;
  q.cells.push_back({row, 3});
  net.transport->send(0, 1, net::Message(q));
  net.engine.run_until(2 * sim::kSecond);

  // Node 0 received the cell (kept as an extra/sample-style cell or within
  // its own lines).
  EXPECT_TRUE(a.custody().has_cell({row, 3}));
}

TEST(PandasNode, QueryBufferedUntilAvailable) {
  ProtoNet net;
  auto& a = *net.nodes[0];
  auto& b = *net.nodes[1];
  a.begin_slot(1);
  b.begin_slot(1);
  const auto row = net.table->of(1).rows[0];

  // Query B for a cell it does not have yet: no reply.
  net::CellQueryMsg q;
  q.slot = 1;
  q.cells.push_back({row, 5});
  net.transport->send(0, 1, net::Message(q));
  net.engine.run_until(net.engine.now() + sim::kSecond);
  EXPECT_FALSE(a.custody().has_cell({row, 5}));

  // B now receives the cell via a late seed: the buffered query flushes.
  net::SeedMsg seed;
  seed.slot = 1;
  seed.cells.push_back({row, 5});
  seed.tags = net::proof_tags(seed.slot, seed.cells);
  net::Message sm(seed);
  b.handle_message(99, sm);
  net.engine.run_until(net.engine.now() + sim::kSecond);
  EXPECT_TRUE(a.custody().has_cell({row, 5}));
}

/// Seeds `node` directly with `cells` (valid proof tags), as the builder would.
void seed_node(PandasNode& node, std::vector<net::CellId> cells) {
  net::SeedMsg seed;
  seed.slot = 1;
  seed.cells = std::move(cells);
  seed.tags = net::proof_tags(seed.slot, seed.cells);
  net::Message sm(seed);
  node.handle_message(99, sm);
}

TEST(PandasNode, BufferedQueryCompletesThroughReconstruction) {
  ProtoNet net;
  auto& a = *net.nodes[0];
  auto& b = *net.nodes[1];
  a.begin_slot(1);
  b.begin_slot(1);
  const auto row = net.table->of(1).rows[0];
  const net::CellId parity{row, 31};  // never received, only reconstructed

  net::CellQueryMsg q;
  q.slot = 1;
  q.cells.push_back(parity);
  net.transport->send(0, 1, net::Message(q));
  net.engine.run_until(net.engine.now() + sim::kSecond);
  EXPECT_EQ(b.buffered_queries(), 1u);

  // k cells of the row: B decodes the rest, the parity cell among them.
  std::vector<net::CellId> half;
  for (std::uint16_t c = 0; c < net.params.matrix_k; ++c) {
    half.push_back({row, c});
  }
  seed_node(b, half);
  EXPECT_TRUE(b.custody().line_complete(net::LineRef::row(row)));
  EXPECT_EQ(b.buffered_queries(), 0u);
  net.engine.run_until(net.engine.now() + sim::kSecond);
  EXPECT_TRUE(a.custody().has_cell(parity));
}

TEST(PandasNode, RequestersWaitingOnOneCellAreServedInArrivalOrder) {
  ProtoNet net;
  auto& b = *net.nodes[1];
  obs::TraceSink sink;
  b.set_trace(&sink);
  for (const auto i : {0, 1, 2}) net.nodes[i]->begin_slot(1);
  const auto row = net.table->of(1).rows[0];
  const net::CellId cell{row, 5};

  // Node 2 asks first, node 0 second; both wait on the same cell. The
  // steps stay short of B's 400 ms fallback, so no fetch traffic of B's
  // (and no queries it would provoke back) mixes in.
  for (const net::NodeIndex from : {2u, 0u}) {
    net::CellQueryMsg q;
    q.slot = 1;
    q.cells.push_back(cell);
    net.transport->send(from, 1, net::Message(q));
    net.engine.run_until(net.engine.now() + 190 * sim::kMillisecond);
  }
  EXPECT_EQ(b.buffered_queries(), 2u);

  seed_node(b, {cell});  // one ingest serves both
  EXPECT_EQ(b.buffered_queries(), 0u);
  std::vector<std::uint32_t> served_to;
  for (const auto& ev : sink.events()) {
    if (ev.type == obs::EventType::kBufferedReplyServed) {
      served_to.push_back(ev.peer);
    }
  }
  EXPECT_EQ(served_to, (std::vector<std::uint32_t>{2, 0}));
  net.engine.run_until(net.engine.now() + sim::kSecond);
  EXPECT_TRUE(net.nodes[0]->custody().has_cell(cell));
  EXPECT_TRUE(net.nodes[2]->custody().has_cell(cell));
}

TEST(PandasNode, MuteAndWithholdingServersBufferNothing) {
  for (const auto behavior : {fault::Behavior::kMuteFreeRider,
                              fault::Behavior::kSelectiveWithhold}) {
    ProtoNet net;
    auto& a = *net.nodes[0];
    auto& b = *net.nodes[1];
    fault::NodeProfile profile;
    profile.behavior = behavior;
    b.set_fault_profile(&profile);
    obs::TraceSink sink;
    b.set_trace(&sink);
    a.begin_slot(1);
    b.begin_slot(1);
    const auto row = net.table->of(1).rows[0];
    const net::CellId cell{row, 6};

    net::CellQueryMsg q;
    q.slot = 1;
    q.cells.push_back(cell);
    net.transport->send(0, 1, net::Message(q));
    net.engine.run_until(net.engine.now() + sim::kSecond);
    EXPECT_EQ(b.buffered_queries(), 0u);

    seed_node(b, {cell});
    net.engine.run_until(net.engine.now() + sim::kSecond);
    EXPECT_TRUE(b.custody().has_cell(cell));
    for (const auto& ev : sink.events()) {
      EXPECT_NE(ev.type, obs::EventType::kBufferedReplyServed)
          << "a withheld query was served late";
      EXPECT_NE(ev.type, obs::EventType::kQueryBuffered);
    }
  }
}

TEST(PandasNode, FallbackTimerStartsFetchWithoutSeed) {
  ProtoNet net;
  auto& a = *net.nodes[0];
  a.begin_slot(1);
  EXPECT_FALSE(a.fetcher()->started());

  // A foreign query for the current slot arms the 400 ms fallback.
  net::CellQueryMsg q;
  q.slot = 1;
  q.cells.push_back({net.table->of(0).rows[0], 1});
  net::Message msg(q);
  a.handle_message(2, msg);
  EXPECT_FALSE(a.fetcher()->started());

  net.engine.run_until(net.engine.now() + 300 * sim::kMillisecond);
  EXPECT_FALSE(a.fetcher()->started()) << "timer must not fire early";
  net.engine.run_until(net.engine.now() + 200 * sim::kMillisecond);
  EXPECT_TRUE(a.fetcher()->started()) << "fetch starts at the 400 ms fallback";
}

TEST(PandasNode, SamplesAreUnpredictablePerSlotAndNode) {
  ProtoNet net;
  auto& a = *net.nodes[0];
  auto& b = *net.nodes[1];
  a.begin_slot(1);
  b.begin_slot(1);
  EXPECT_NE(a.samples(), b.samples());
  const auto slot1 = a.samples();
  // Also different across slots for the same node.
  a.begin_slot(2);
  EXPECT_NE(a.samples(), slot1);
  EXPECT_EQ(a.samples().size(), net.params.samples_per_node);
}

TEST(PandasNode, SamplingCompletesWhenSamplesArrive) {
  ProtoNet net;
  auto& a = *net.nodes[0];
  a.begin_slot(1);
  // Deliver every sample directly via a reply (as if fetched).
  net::CellReplyMsg reply;
  reply.slot = 1;
  reply.cells = a.samples();
  reply.tags = net::proof_tags(reply.slot, reply.cells);
  // Must have an active fetcher for reply accounting; start via seed.
  net::SeedMsg seed;
  seed.slot = 1;
  net::Message sm(seed);
  a.handle_message(99, sm);
  net::Message rm(reply);
  a.handle_message(2, rm);
  EXPECT_TRUE(a.sampled());
  EXPECT_TRUE(a.record().sampling_time.has_value());
}

TEST(PandasNode, EndToEndTinySlotWithBuilder) {
  ProtoNet net;
  const auto builder_index = net.transport->add_node(0, 10e9, 10e9);
  Builder builder(net.engine, *net.transport, builder_index, net.params);

  for (auto& node : net.nodes) node->begin_slot(3);
  util::Xoshiro256 rng(5);
  const auto plan = plan_seeding(net.params, *net.table, net.view,
                                 SeedingPolicy::redundant(4), rng);
  builder.seed(3, *net.table, net.view, plan, rng);
  net.engine.run_until(net.engine.now() + 6 * sim::kSecond);

  std::uint32_t consolidated = 0, sampled = 0;
  for (auto& node : net.nodes) {
    if (node->consolidated()) ++consolidated;
    if (node->sampled()) ++sampled;
  }
  EXPECT_EQ(consolidated, net.nodes.size());
  // At 40 nodes some lines have no assigned member at all, so a few sample
  // cells can be unservable; the vast majority of nodes still completes.
  EXPECT_GE(sampled, net.nodes.size() * 9 / 10);
}

}  // namespace
}  // namespace pandas::core
