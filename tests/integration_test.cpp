#include <gtest/gtest.h>

#include "harness/experiment.h"

namespace pandas::harness {
namespace {

/// Small-but-real end-to-end runs of the full PANDAS stack: builder seeding
/// over the simulated WAN, consolidation, sampling, gossip block channel.
/// Uses a reduced matrix (64x128) so tests stay fast while every code path
/// (parcels, boost, reconstruction, buffered queries, adaptive rounds) runs.

PandasConfig small_config() {
  PandasConfig cfg;
  cfg.net.nodes = 120;
  cfg.net.seed = 5;
  cfg.net.topology.vertices = 500;
  // 64-cell lines keep per-line populations dense at 120 nodes (~15
  // nodes/line), mirroring the paper's 1,000-node/512-line density.
  cfg.params.matrix_k = 32;
  cfg.params.matrix_n = 64;
  cfg.params.rows_per_node = 4;
  cfg.params.cols_per_node = 4;
  cfg.params.samples_per_node = 20;
  cfg.slots = 1;
  cfg.block_gossip = false;
  return cfg;
}

TEST(PandasIntegration, AllNodesCompleteWithinDeadline) {
  auto cfg = small_config();
  PandasExperiment exp(cfg);
  const auto res = exp.run();
  EXPECT_EQ(res.records, 120u);
  EXPECT_EQ(res.sampling_misses, 0u);
  EXPECT_EQ(res.consolidation_misses, 0u);
  // Everyone sampled within the 4 s deadline at this small scale.
  EXPECT_DOUBLE_EQ(res.deadline_fraction(), 1.0);
  EXPECT_GT(res.sampling_ms.count(), 0u);
  EXPECT_LT(res.sampling_ms.max(), 4000.0);
}

TEST(PandasIntegration, SeedingPrecedesConsolidationPrecedesSampling) {
  auto cfg = small_config();
  PandasExperiment exp(cfg);
  const auto res = exp.run();
  EXPECT_LT(res.seed_ms.median(), res.consolidation_ms.median());
  // Sampling completes no earlier than seeding (it needs peers).
  EXPECT_GE(res.sampling_ms.min(), res.seed_ms.min());
}

TEST(PandasIntegration, CustodyCompleteAndVerifiable) {
  auto cfg = small_config();
  PandasExperiment exp(cfg);
  PandasResults res;
  exp.run_slot(0, res);
  // Every node holds all cells of its assigned lines.
  for (std::uint32_t i = 0; i < cfg.net.nodes; ++i) {
    const auto& node = exp.node(i);
    EXPECT_TRUE(node.custody().all_lines_complete()) << "node " << i;
    for (const auto line : node.custody().assignment().lines()) {
      EXPECT_EQ(node.custody().line_count(line), cfg.params.matrix_n);
    }
    // All samples held.
    for (const auto cell : node.samples()) {
      EXPECT_TRUE(node.custody().has_cell(cell));
    }
  }
}

TEST(PandasIntegration, MinimalPolicyStillCompletes) {
  auto cfg = small_config();
  cfg.policy = core::SeedingPolicy::minimal();
  PandasExperiment exp(cfg);
  const auto res = exp.run();
  // Minimal seeds only the original quadrant; consolidation must still
  // complete every line through reconstruction + buffered queries.
  EXPECT_EQ(res.sampling_misses, 0u);
  EXPECT_GT(res.deadline_fraction(), 0.95);
}

TEST(PandasIntegration, SinglePolicyCompletes) {
  auto cfg = small_config();
  cfg.policy = core::SeedingPolicy::single();
  PandasExperiment exp(cfg);
  const auto res = exp.run();
  EXPECT_EQ(res.sampling_misses, 0u);
}

TEST(PandasIntegration, RedundancyReducesFetchTraffic) {
  auto cfg = small_config();
  cfg.policy = core::SeedingPolicy::minimal();
  const auto minimal = PandasExperiment(cfg).run();
  cfg.policy = core::SeedingPolicy::redundant(8);
  const auto redundant = PandasExperiment(cfg).run();
  // More seeding redundancy -> fewer fetch messages (paper Fig 10).
  EXPECT_LT(redundant.fetch_messages.mean(), minimal.fetch_messages.mean());
}

TEST(PandasIntegration, BuilderEgressMatchesPolicyBudget) {
  auto cfg = small_config();
  cfg.policy = core::SeedingPolicy::single();
  PandasExperiment exp(cfg);
  const auto res = exp.run();
  // Single policy: ~one copy of the extended blob (n*n cells of 560 B),
  // plus headers/boost.
  const double blob_bytes = static_cast<double>(cfg.params.matrix_n) *
                            cfg.params.matrix_n * net::kCellWireBytes;
  EXPECT_GT(res.builder_bytes_per_slot, blob_bytes);
  EXPECT_LT(res.builder_bytes_per_slot, blob_bytes * 1.6);
}

TEST(PandasIntegration, DeadNodesDegradeGracefully) {
  auto cfg = small_config();
  cfg.faults.dead_fraction = 0.2;
  PandasExperiment exp(cfg);
  const auto res = exp.run();
  // Only correct nodes are measured.
  EXPECT_EQ(res.records, 96u);
  // The vast majority still completes despite 20% dead nodes (Fig 15a).
  EXPECT_GT(res.deadline_fraction(), 0.8);
}

TEST(PandasIntegration, OutOfViewNodesDegradeGracefully) {
  auto cfg = small_config();
  cfg.out_of_view_fraction = 0.2;
  PandasExperiment exp(cfg);
  const auto res = exp.run();
  EXPECT_EQ(res.records, 120u);
  EXPECT_GT(res.deadline_fraction(), 0.8);
}

TEST(PandasIntegration, DataWithholdingIsDetected) {
  // A withholding builder: seeds nothing at all. No node may conclude that
  // sampling succeeded — availability is systematically rejected.
  auto cfg = small_config();
  cfg.slots = 1;
  PandasExperiment exp(cfg);

  PandasResults res;
  // Run a slot where the builder sends nothing: we emulate it by seeding
  // with an empty plan (builder withholds every cell).
  const sim::Time start = exp.engine().now();
  for (std::uint32_t i = 0; i < cfg.net.nodes; ++i) {
    exp.node(i).begin_slot(0);
  }
  exp.engine().run_until(start + cfg.slot_duration);
  std::uint32_t sampled = 0;
  for (std::uint32_t i = 0; i < cfg.net.nodes; ++i) {
    if (exp.node(i).sampled()) ++sampled;
  }
  EXPECT_EQ(sampled, 0u);
}

TEST(PandasIntegration, BlockGossipDelivers) {
  auto cfg = small_config();
  cfg.block_gossip = true;
  cfg.net.nodes = 60;
  PandasExperiment exp(cfg);
  const auto res = exp.run();
  // Every correct node received the block via GossipSub.
  EXPECT_GE(res.block_ms.count(), 59u);
}

TEST(PandasIntegration, MultipleSlotsIndependent) {
  auto cfg = small_config();
  cfg.net.nodes = 80;
  cfg.slots = 3;
  PandasExperiment exp(cfg);
  const auto res = exp.run();
  EXPECT_EQ(res.records, 240u);
  EXPECT_EQ(res.sampling_misses, 0u);
}

TEST(PandasIntegration, EpochRotationChangesAssignment) {
  auto cfg = small_config();
  cfg.net.nodes = 80;
  cfg.slots = 1;
  PandasExperiment exp(cfg);
  PandasResults res;
  exp.run_slot(31, res);  // last slot of epoch 0
  const auto epoch0_rows = exp.assignment().of(0).rows;
  EXPECT_TRUE(exp.node(0).sampled());
  exp.run_slot(32, res);  // first slot of epoch 1 -> F must rotate
  const auto epoch1_rows = exp.assignment().of(0).rows;
  EXPECT_NE(epoch0_rows, epoch1_rows);
  EXPECT_TRUE(exp.node(0).sampled()) << "protocol must keep working after "
                                        "the rotation";
  EXPECT_EQ(res.sampling_misses, 0u);
}

TEST(PandasIntegration, DeterministicAcrossRuns) {
  auto cfg = small_config();
  cfg.net.nodes = 60;
  const auto a = PandasExperiment(cfg).run();
  const auto b = PandasExperiment(cfg).run();
  ASSERT_EQ(a.sampling_ms.count(), b.sampling_ms.count());
  EXPECT_DOUBLE_EQ(a.sampling_ms.mean(), b.sampling_ms.mean());
  EXPECT_DOUBLE_EQ(a.fetch_mb.mean(), b.fetch_mb.mean());
}

}  // namespace
}  // namespace pandas::harness
