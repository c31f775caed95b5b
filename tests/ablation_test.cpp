#include <gtest/gtest.h>

#include "harness/experiment.h"

namespace pandas::harness {
namespace {

/// Ablations of PANDAS's design choices (DESIGN.md §5) at small scale:
/// each mechanism must pull in the direction the paper claims.

PandasConfig base_config() {
  PandasConfig cfg;
  cfg.net.nodes = 150;
  cfg.net.seed = 13;
  cfg.net.topology.vertices = 500;
  cfg.params.matrix_k = 32;
  cfg.params.matrix_n = 64;
  cfg.params.rows_per_node = 4;
  cfg.params.cols_per_node = 4;
  cfg.params.samples_per_node = 16;
  cfg.slots = 1;
  cfg.block_gossip = false;
  cfg.policy = core::SeedingPolicy::redundant(8);
  return cfg;
}

TEST(Ablation, AdaptiveFetchingBeatsConstant) {
  auto cfg = base_config();
  // Inject loss + dead nodes so retries matter.
  cfg.faults.dead_fraction = 0.15;
  const auto adaptive = PandasExperiment(cfg).run();
  cfg.params.adaptive = false;
  const auto constant = PandasExperiment(cfg).run();
  ASSERT_GT(adaptive.sampling_ms.count(), 0u);
  // The adaptive schedule completes sampling no later (usually much
  // earlier) at the tail than the fixed t=400ms/k=1 strategy (Fig 11).
  EXPECT_LE(adaptive.sampling_ms.percentile(95),
            constant.sampling_ms.percentile(95) + 1.0);
  EXPECT_GE(adaptive.deadline_fraction(), constant.deadline_fraction());
}

TEST(Ablation, ConsolidationBoostSpeedsUpConsolidation) {
  auto cfg = base_config();
  const auto with_boost = PandasExperiment(cfg).run();
  cfg.policy.boost_enabled = false;
  const auto no_boost = PandasExperiment(cfg).run();
  ASSERT_GT(with_boost.consolidation_ms.count(), 0u);
  ASSERT_GT(no_boost.consolidation_ms.count(), 0u);
  // Boost-guided round-1 targeting should not be slower at the median.
  EXPECT_LE(with_boost.consolidation_ms.median(),
            no_boost.consolidation_ms.median() * 1.1);
}

TEST(Ablation, SeedingRedundancySpeedsUpSampling) {
  auto cfg = base_config();
  cfg.policy = core::SeedingPolicy::redundant(8);
  const auto r8 = PandasExperiment(cfg).run();
  cfg.policy = core::SeedingPolicy::minimal();
  const auto minimal = PandasExperiment(cfg).run();
  ASSERT_GT(r8.sampling_ms.count(), 0u);
  ASSERT_GT(minimal.sampling_ms.count(), 0u);
  // Fig 9d ordering: redundant <= single/minimal in median sampling time.
  EXPECT_LE(r8.sampling_ms.median(), minimal.sampling_ms.median());
}

TEST(Ablation, LossIncreasesTailNotMedianMuch) {
  auto cfg = base_config();
  cfg.net.transport.loss_rate = 0.0;
  const auto lossless = PandasExperiment(cfg).run();
  cfg.net.transport.loss_rate = 0.10;
  const auto lossy = PandasExperiment(cfg).run();
  ASSERT_GT(lossless.sampling_ms.count(), 0u);
  ASSERT_GT(lossy.sampling_ms.count(), 0u);
  // 10% loss must not break completion; adaptive redundancy absorbs it.
  EXPECT_EQ(lossy.sampling_misses, 0u);
  EXPECT_GE(lossy.sampling_ms.percentile(99),
            lossless.sampling_ms.percentile(99));
}

TEST(Ablation, MoreSamplesTakeLonger) {
  auto cfg = base_config();
  cfg.params.samples_per_node = 4;
  const auto few = PandasExperiment(cfg).run();
  cfg.params.samples_per_node = 48;
  const auto many = PandasExperiment(cfg).run();
  ASSERT_GT(few.sampling_ms.count(), 0u);
  ASSERT_GT(many.sampling_ms.count(), 0u);
  EXPECT_GE(many.sampling_ms.mean(), few.sampling_ms.mean() * 0.9);
}

}  // namespace
}  // namespace pandas::harness
