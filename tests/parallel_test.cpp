#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/messages.h"
#include "net/sim_transport.h"
#include "sim/engine.h"
#include "sim/parallel_engine.h"
#include "sim/topology.h"
#include "util/prng.h"

// Serial-vs-parallel equivalence and barrier edge cases for the sharded
// engine (docs/SIMULATION.md "Parallel execution", determinism contract
// clause 5). The contract under test: for a fixed seed, every observable —
// per-actor event timelines, per-node delivery logs, traffic counters — is
// identical for any shard count, under either scheduler.
namespace pandas {
namespace {

// ------------------------------------------------- engine-level equivalence

/// A self-rescheduling actor: its lane's key timeline must depend only on
/// its own (deterministic) randomized delays, never on shard layout.
struct TimerActor {
  sim::Engine* eng = nullptr;
  std::uint32_t lane = 0;
  util::Xoshiro256 rng{0};
  int ticks = 0;
  std::vector<std::pair<sim::Time, int>>* log = nullptr;

  void step() {
    log->emplace_back(eng->now(), ticks);
    if (++ticks < 64) {
      eng->schedule_in_as(lane, 1 + static_cast<sim::Time>(rng.uniform(3000)),
                          [this] { step(); });
    }
  }
};

using ActorLogs = std::vector<std::vector<std::pair<sim::Time, int>>>;

ActorLogs run_timer_actors(std::uint32_t shards) {
  constexpr std::uint32_t kActors = 16;
  sim::ParallelEngine peng(1, shards);
  peng.set_lookahead(500);

  ActorLogs logs(kActors);
  std::vector<TimerActor> actors(kActors);
  for (std::uint32_t a = 0; a < kActors; ++a) {
    actors[a].eng = &peng.engine_for(a);
    actors[a].lane = sim::Engine::lane_of_actor(a);
    actors[a].rng = util::Xoshiro256(1000 + a);
    actors[a].log = &logs[a];
    TimerActor* p = &actors[a];
    p->eng->schedule_as(p->lane, 1 + a * 13, [p] { p->step(); });
  }
  peng.run_until(200000);
  return logs;
}

TEST(ParallelEngine, ActorTimelinesMatchSerialForAnyShardCount) {
  const auto reference = run_timer_actors(1);
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    EXPECT_EQ(run_timer_actors(shards), reference) << "shards=" << shards;
  }
}

// ---------------------------------------------- transport-level equivalence

constexpr std::uint32_t kNodes = 24;
constexpr std::uint64_t kSeed = 2026;
constexpr std::uint64_t kTopoSeed = 7;
constexpr sim::Time kHorizon = 3 * sim::kSecond;

sim::Topology test_topology() {
  sim::TopologyConfig cfg;
  cfg.vertices = 64;
  cfg.regions = 4;
  return sim::Topology::generate(cfg, kTopoSeed);
}

struct RunLog {
  std::vector<std::string> per_node;
  net::TypedTrafficStats totals;
  std::uint64_t executed = 0;
};

/// Randomized relay workload over any engine arrangement: each delivery is
/// logged with sender / payload / hop / arrival time, then relayed to a
/// node drawn from the receiver's own PRNG (layout-invariant by
/// construction). Node 5 is dead, node 7 a straggler; the default 3 % loss
/// stays on, so drop decisions feed back into every downstream log line.
template <typename EngineFor>
void wire_relay_workload(net::SimTransport& tr, EngineFor&& engine_for,
                         std::vector<util::Xoshiro256>& rngs, RunLog& log) {
  const auto vertices = 64u;
  log.per_node.resize(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    tr.add_node((i * 5) % vertices);
    rngs.emplace_back(0xfeed0000 + i);
  }
  tr.set_dead(5, true);
  tr.set_extra_delay(7, 2500);

  for (std::uint32_t i = 0; i < kNodes; ++i) {
    sim::Engine* eng = &engine_for(i);
    tr.set_handler(i, [&tr, &rngs, &log, eng, i](net::NodeIndex from,
                                                 net::Message&& m) {
      const auto& q = std::get<net::CellQueryMsg>(m);
      char buf[96];
      std::snprintf(buf, sizeof buf, "f%u s%llu r%u c%zu t%lld;", from,
                    static_cast<unsigned long long>(q.slot), q.round,
                    q.cells.size(), static_cast<long long>(eng->now()));
      log.per_node[i] += buf;
      if (q.round < 6) {
        net::CellQueryMsg next;
        next.slot = q.slot;
        next.round = q.round + 1;
        next.cells.resize(1 + rngs[i].uniform(8));
        const auto target =
            static_cast<net::NodeIndex>(rngs[i].uniform(kNodes));
        tr.send(i, target, net::Message(std::move(next)));
      }
    });
    // Driver seeding on the node's own lane, like the harness does.
    eng->schedule_as(sim::Engine::lane_of_actor(i), 100 + i * 37,
                     [&tr, i] {
                       net::CellQueryMsg first;
                       first.slot = i;
                       first.round = 0;
                       first.cells.resize(3);
                       tr.send(i, (i + 1) % kNodes,
                               net::Message(std::move(first)));
                     });
  }
}

RunLog run_relay_serial() {
  const auto topo = test_topology();
  sim::Engine eng(kSeed);
  net::SimTransport tr(eng, topo);
  std::vector<util::Xoshiro256> rngs;
  RunLog log;
  wire_relay_workload(tr, [&](std::uint32_t) -> sim::Engine& { return eng; },
                      rngs, log);
  log.executed = eng.run_until(kHorizon);
  log.totals = tr.typed_totals();
  return log;
}

RunLog run_relay_parallel(std::uint32_t shards) {
  const auto topo = test_topology();
  sim::ParallelEngine peng(kSeed, shards);
  peng.set_lookahead(topo.min_owd());
  net::SimTransport tr(peng, topo);
  std::vector<util::Xoshiro256> rngs;
  RunLog log;
  wire_relay_workload(
      tr,
      [&](std::uint32_t a) -> sim::Engine& { return peng.engine_for(a); },
      rngs, log);
  log.executed = peng.run_until(kHorizon);
  log.totals = tr.typed_totals();
  return log;
}

void expect_equal(const RunLog& got, const RunLog& want,
                  const std::string& label) {
  EXPECT_EQ(got.executed, want.executed) << label;
  ASSERT_EQ(got.per_node.size(), want.per_node.size()) << label;
  for (std::size_t i = 0; i < want.per_node.size(); ++i) {
    EXPECT_EQ(got.per_node[i], want.per_node[i]) << label << " node " << i;
  }
  for (std::size_t c = 0; c < net::kMsgClassCount; ++c) {
    const auto& g = got.totals.by_class[c];
    const auto& w = want.totals.by_class[c];
    EXPECT_EQ(g.msgs_sent, w.msgs_sent) << label << " class " << c;
    EXPECT_EQ(g.msgs_received, w.msgs_received) << label << " class " << c;
    EXPECT_EQ(g.bytes_sent, w.bytes_sent) << label << " class " << c;
    EXPECT_EQ(g.bytes_received, w.bytes_received) << label << " class " << c;
    EXPECT_EQ(g.msgs_lost, w.msgs_lost) << label << " class " << c;
    EXPECT_EQ(g.cells_lost, w.cells_lost) << label << " class " << c;
    EXPECT_EQ(g.msgs_to_dead, w.msgs_to_dead) << label << " class " << c;
  }
}

TEST(ParallelTransport, DeliveryLogsMatchSerialForAnyShardCount) {
  const auto reference = run_relay_serial();
  ASSERT_GT(reference.executed, 0u);
  // Sanity: the workload actually exercised loss and dead-node paths.
  std::uint64_t lost = 0, to_dead = 0;
  for (const auto& c : reference.totals.by_class) {
    lost += c.msgs_lost + c.cells_lost;
    to_dead += c.msgs_to_dead;
  }
  EXPECT_GT(lost, 0u);
  EXPECT_GT(to_dead, 0u);
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    expect_equal(run_relay_parallel(shards), reference,
                 "shards=" + std::to_string(shards));
  }
}

TEST(ParallelTransport, CrossShardSendsGoThroughLanes) {
  const auto topo = test_topology();
  sim::ParallelEngine peng(kSeed, 2);
  peng.set_lookahead(topo.min_owd());
  net::SimTransport tr(peng, topo);
  std::vector<util::Xoshiro256> rngs;
  RunLog log;
  wire_relay_workload(
      tr, [&](std::uint32_t a) -> sim::Engine& { return peng.engine_for(a); },
      rngs, log);
  peng.set_profiling(true);
  peng.run_until(kHorizon);
  const auto& ws = peng.window_stats();
  EXPECT_GT(ws.windows, 0u);
  EXPECT_GT(ws.lane_events, 0u);
  EXPECT_EQ(peng.merged_profile().events, peng.executed());
}

// ------------------------------------------------------- barrier edge cases

/// Stub LaneSource recording every barrier commit.
struct RecordingLanes final : sim::ParallelEngine::LaneSource {
  std::vector<sim::Time> commits;
  int clears = 0;
  std::size_t commit_lanes(sim::Time window_end) override {
    commits.push_back(window_end);
    return 0;
  }
  void clear_lanes() noexcept override { ++clears; }
};

TEST(ParallelEngine, EventOnWindowBoundaryRunsInThatWindow) {
  sim::ParallelEngine peng(1, 2);
  peng.set_lookahead(100);
  RecordingLanes lanes;
  peng.set_lane_source(&lanes);

  std::vector<sim::Time> fired;
  auto& eng = peng.engine_for(0);
  const auto lane = sim::Engine::lane_of_actor(0);
  // Window base is tmin = 10, so the safe window is [10, 109]: an event on
  // the last slot (109) must execute in the first window, one at 110 must
  // open a second window.
  for (const sim::Time t : {10, 109, 110}) {
    eng.schedule_as(lane, t, [&fired, &eng] { fired.push_back(eng.now()); });
  }
  peng.run_until(1000);

  EXPECT_EQ(fired, (std::vector<sim::Time>{10, 109, 110}));
  ASSERT_EQ(lanes.commits.size(), 2u);
  EXPECT_EQ(lanes.commits[0], 109);  // barrier of window [10, 109]
  EXPECT_EQ(lanes.commits[1], 209);  // barrier of window [110, 209]
  EXPECT_EQ(peng.window_stats().windows, 2u);
  EXPECT_EQ(peng.now(), 1000);  // clocks synced to the limit
}

TEST(ParallelEngine, ClearDropsLanesAndAllShards) {
  sim::ParallelEngine peng(1, 2);
  peng.set_lookahead(100);
  RecordingLanes lanes;
  peng.set_lane_source(&lanes);
  peng.engine_for(0).schedule_as(sim::Engine::lane_of_actor(0), 50, [] {});
  peng.engine_for(1).schedule_as(sim::Engine::lane_of_actor(1), 60, [] {});
  EXPECT_EQ(peng.pending(), 2u);
  peng.clear();
  EXPECT_EQ(peng.pending(), 0u);
  EXPECT_EQ(lanes.clears, 1);
}

TEST(ParallelEngine, MidWindowClearIsShardLocal) {
  sim::ParallelEngine peng(1, 2);
  peng.set_lookahead(1000);  // one window covers the whole scenario

  bool cleared_shard_ran_later = false;
  bool other_shard_ran = false;
  auto& e0 = peng.engine_for(0);  // shard 0
  auto& e1 = peng.engine_for(1);  // shard 1
  const auto l0 = sim::Engine::lane_of_actor(0);
  const auto l1 = sim::Engine::lane_of_actor(1);
  e0.schedule_as(l0, 50, [&e0] { e0.clear(); });
  e0.schedule_as(l0, 60, [&cleared_shard_ran_later] {
    cleared_shard_ran_later = true;
  });
  e1.schedule_as(l1, 55, [&other_shard_ran] { other_shard_ran = true; });
  peng.run_until(2000);

  EXPECT_FALSE(cleared_shard_ran_later);  // dropped by the mid-window clear
  EXPECT_TRUE(other_shard_ran);           // untouched shard keeps running
}

TEST(ParallelEngine, RejectsZeroLookahead) {
  sim::ParallelEngine peng(1, 2);
  EXPECT_THROW(peng.set_lookahead(0), std::invalid_argument);
}

TEST(ParallelTransport, CommitRejectsArrivalInsideWindow) {
  // A lookahead wider than the network's true minimum delay breaks the
  // conservative invariant: a cross-shard arrival then lands inside the
  // window that produced it, and the barrier commit must refuse it loudly
  // rather than deliver out of order.
  const auto topo = test_topology();
  sim::ParallelEngine peng(kSeed, 2);
  peng.set_lookahead(10 * sim::kSecond);
  net::SimTransportConfig cfg;
  cfg.loss_rate = 0;  // the send must survive to reach the barrier
  net::SimTransport tr(peng, topo, cfg);
  for (std::uint32_t i = 0; i < 2; ++i) tr.add_node(i);
  tr.set_handler(1, [](net::NodeIndex, net::Message&&) {});
  peng.engine_for(0).schedule_as(sim::Engine::lane_of_actor(0), 100, [&tr] {
    net::CellQueryMsg q;
    q.cells.resize(1);
    tr.send(0, 1, net::Message(std::move(q)));
  });
  EXPECT_THROW(peng.run_until(sim::kSecond), std::logic_error);
}

}  // namespace
}  // namespace pandas
