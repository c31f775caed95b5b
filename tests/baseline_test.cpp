#include <gtest/gtest.h>

#include <string>

#include "harness/baseline_experiments.h"

namespace pandas::harness {
namespace {

/// End-to-end runs of the two baseline systems at reduced scale: they must
/// work (deliver custody and samples eventually) — the paper's claim C5 is
/// that they are *slower*, not broken.

core::ProtocolParams small_params() {
  core::ProtocolParams p;
  p.matrix_k = 32;
  p.matrix_n = 64;
  p.rows_per_node = 4;
  p.cols_per_node = 4;
  p.samples_per_node = 16;
  return p;
}

TEST(GossipDasBaseline, UnitAssignmentsAreQuantized) {
  const auto params = small_params();
  const auto dir = net::Directory::create(100);
  const auto units = baselines::unit_count(params);
  EXPECT_EQ(units, 2 * 64 / 8u);
  const auto per_node =
      baselines::unit_assignments(params, dir, core::epoch_seed(1, 0));
  ASSERT_EQ(per_node.size(), 100u);
  for (const auto& lines : per_node) {
    EXPECT_EQ(lines.rows.size(), params.rows_per_node);
    EXPECT_EQ(lines.cols.size(), params.cols_per_node);
    // Rows of one unit are a contiguous block.
    const auto unit = lines.rows.front() / params.rows_per_node;
    for (std::size_t i = 0; i < lines.rows.size(); ++i) {
      EXPECT_EQ(lines.rows[i], unit * params.rows_per_node + i);
    }
  }
}

TEST(GossipDasBaseline, UnitLinesWrapAround) {
  const auto params = small_params();
  const auto lines = baselines::unit_lines(params, 3);
  EXPECT_EQ(lines.rows, (std::vector<std::uint16_t>{12, 13, 14, 15}));
  EXPECT_EQ(lines.cols, (std::vector<std::uint16_t>{12, 13, 14, 15}));
}

TEST(GossipDasBaseline, EndToEndDeliversCustodyAndSamples) {
  GossipDasConfig cfg;
  cfg.net.nodes = 160;
  cfg.net.seed = 3;
  cfg.net.topology.vertices = 400;
  cfg.params = small_params();
  cfg.slots = 1;
  GossipDasExperiment exp(cfg);
  const auto res = exp.run();
  EXPECT_EQ(res.records, 160u);
  // The vast majority receives its unit and completes sampling within the
  // slot (some stragglers are expected — that is the baseline's weakness).
  EXPECT_GE(res.custody_ms.count(), 140u);
  EXPECT_GE(res.sampling_ms.count(), 140u);
  EXPECT_GT(res.messages.mean(), 0.0);
}

TEST(DhtDasBaseline, ParcelMapping) {
  const auto params = small_params();
  EXPECT_EQ(baselines::parcel_of(net::CellId{5, 63}),
            (std::pair<std::uint16_t, std::uint16_t>{5, 0}));
  EXPECT_EQ(baselines::parcel_of(net::CellId{5, 64}),
            (std::pair<std::uint16_t, std::uint16_t>{5, 1}));
  const auto cells = baselines::parcel_cells(params, 5, 0);
  EXPECT_EQ(cells.size(), params.matrix_n);  // 64-cell line -> one parcel
  EXPECT_EQ(cells.front(), (net::CellId{5, 0}));
  EXPECT_EQ(cells.back(), (net::CellId{5, 63}));
  // Keys differ per slot/row/parcel.
  EXPECT_NE(baselines::parcel_key(1, 5, 0), baselines::parcel_key(1, 5, 1));
  EXPECT_NE(baselines::parcel_key(1, 5, 0), baselines::parcel_key(2, 5, 0));
}

TEST(DhtDasBaseline, EndToEndSamplingViaDht) {
  DhtDasConfig cfg;
  cfg.net.nodes = 120;
  cfg.net.seed = 7;
  cfg.net.topology.vertices = 300;
  cfg.params = small_params();
  cfg.slots = 1;
  DhtDasExperiment exp(cfg);
  const auto res = exp.run();
  EXPECT_EQ(res.records, 120u);
  // Most nodes complete sampling within the 12 s slot (multi-hop routing is
  // slow — the paper's point — but functional).
  EXPECT_GE(res.sampling_ms.count(), 100u);
  EXPECT_GT(res.messages.mean(), 10.0);
}

TEST(DhtDasBaseline, BuilderStoresAllParcels) {
  DhtDasConfig cfg;
  cfg.net.nodes = 80;
  cfg.net.seed = 9;
  cfg.net.topology.vertices = 300;
  cfg.params = small_params();
  cfg.slots = 1;
  DhtDasExperiment exp(cfg);
  const auto res = exp.run();
  (void)res;
  // Parcels per slot = matrix_n rows (one 64-cell parcel per row at this
  // geometry); storage should be spread across the network.
  std::uint64_t stored = 0;
  for (std::uint32_t i = 0; i < cfg.net.nodes; ++i) {
    stored += exp.node(i).dht().storage().size();
  }
  EXPECT_GT(stored, cfg.params.matrix_n);  // ~8 replicas per parcel
}

// ------------------------------------------------------------ determinism
// Same seed => identical results, run twice and serial vs sharded over two
// engine threads (the determinism contract of docs/SIMULATION.md).

void expect_same(const BaselineResults& a, const BaselineResults& b,
                 const std::string& label) {
  EXPECT_EQ(a.custody_ms.values(), b.custody_ms.values()) << label;
  EXPECT_EQ(a.sampling_ms.values(), b.sampling_ms.values()) << label;
  EXPECT_EQ(a.messages.values(), b.messages.values()) << label;
  EXPECT_EQ(a.traffic_mb.values(), b.traffic_mb.values()) << label;
  EXPECT_EQ(a.sampling_misses, b.sampling_misses) << label;
  EXPECT_EQ(a.records, b.records) << label;
}

template <class Experiment, class Config>
void expect_deterministic(Config cfg) {
  cfg.net.sim_threads = 1;
  const auto first = Experiment(cfg).run();
  ASSERT_GT(first.sampling_ms.count(), 0u);
  expect_same(Experiment(cfg).run(), first, "rerun");
  cfg.net.sim_threads = 2;
  expect_same(Experiment(cfg).run(), first, "sim_threads 2");
}

TEST(GossipDasBaseline, SameSeedSameResultsForAnyThreadCount) {
  GossipDasConfig cfg;
  cfg.net.nodes = 80;
  cfg.net.seed = 5;
  cfg.net.topology.vertices = 300;
  cfg.params = small_params();
  cfg.slots = 1;
  expect_deterministic<GossipDasExperiment>(cfg);
}

TEST(DhtDasBaseline, SameSeedSameResultsForAnyThreadCount) {
  DhtDasConfig cfg;
  cfg.net.nodes = 60;
  cfg.net.seed = 5;
  cfg.net.topology.vertices = 300;
  cfg.params = small_params();
  cfg.slots = 1;
  expect_deterministic<DhtDasExperiment>(cfg);
}

}  // namespace
}  // namespace pandas::harness
