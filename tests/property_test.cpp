#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <tuple>

#include "core/assignment.h"
#include "core/custody.h"
#include "erasure/reed_solomon.h"
#include "net/messages.h"
#include "sim/topology.h"
#include "util/prng.h"

/// Property-style parameterized sweeps (TEST_P) over the protocol's
/// parameter spaces: erasure-code correctness for arbitrary (k, n),
/// assignment-function invariants across geometries and epochs, custody
/// reconstruction across line sizes, and loss-model accounting.
namespace pandas {
namespace {

// ---------------------------------------------------------- Reed-Solomon

using RsParam = std::tuple<std::uint32_t /*k*/, std::uint32_t /*n*/,
                           std::uint32_t /*shard_bytes*/>;

class RsProperty : public ::testing::TestWithParam<RsParam> {};

TEST_P(RsProperty, AnyKofNReconstructs) {
  const auto [k, n, bytes] = GetParam();
  const erasure::ReedSolomon rs(k, n);
  util::Xoshiro256 rng(k * 31 + n);

  std::vector<std::vector<std::uint8_t>> data(k);
  for (auto& s : data) {
    s.resize(bytes);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.uniform(256));
  }
  auto parity = rs.encode(data);
  std::vector<std::vector<std::uint8_t>> all = data;
  for (auto& p : parity) all.push_back(std::move(p));

  // 12 random k-subsets must each reconstruct the data exactly.
  for (int trial = 0; trial < 12; ++trial) {
    const auto picks = rng.sample_distinct(n, k);
    std::vector<std::vector<std::uint8_t>> shards;
    std::vector<std::uint32_t> indices;
    for (const auto i : picks) {
      shards.push_back(all[i]);
      indices.push_back(i);
    }
    const auto decoded = rs.reconstruct_data(shards, indices);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data);
  }
  // k-1 shards must never suffice.
  std::vector<std::vector<std::uint8_t>> shards(all.begin(),
                                                all.begin() + (k - 1));
  std::vector<std::uint32_t> indices(k - 1);
  std::iota(indices.begin(), indices.end(), 0);
  if (k > 1) {
    EXPECT_FALSE(rs.reconstruct_data(shards, indices).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RsProperty,
    ::testing::Values(RsParam{1, 2, 8}, RsParam{2, 4, 16}, RsParam{3, 7, 10},
                      RsParam{8, 16, 32}, RsParam{16, 32, 2},
                      RsParam{31, 62, 4}, RsParam{64, 128, 2},
                      RsParam{5, 5, 6} /* no parity */));

// ------------------------------------------------------------- Assignment

using AssignParam = std::tuple<std::uint32_t /*matrix_n*/,
                               std::uint32_t /*rows*/, std::uint32_t /*cols*/,
                               std::uint64_t /*epoch*/>;

class AssignmentProperty : public ::testing::TestWithParam<AssignParam> {};

TEST_P(AssignmentProperty, CardinalityRangeAndDeterminism) {
  const auto [n, rows, cols, epoch] = GetParam();
  core::ProtocolParams params;
  params.matrix_n = n;
  params.matrix_k = n / 2;
  params.rows_per_node = rows;
  params.cols_per_node = cols;
  const auto seed = core::epoch_seed(77, epoch);

  for (std::uint64_t label = 0; label < 40; ++label) {
    const auto id = crypto::NodeId::from_label(label);
    const auto a = core::compute_assignment(params, seed, id);
    const auto b = core::compute_assignment(params, seed, id);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.cols, b.cols);
    EXPECT_EQ(a.rows.size(), std::min(rows, n));
    EXPECT_EQ(a.cols.size(), std::min(cols, n));
    std::set<std::uint16_t> rs(a.rows.begin(), a.rows.end());
    EXPECT_EQ(rs.size(), a.rows.size());
    for (const auto r : a.rows) EXPECT_LT(r, n);
    for (const auto c : a.cols) EXPECT_LT(c, n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AssignmentProperty,
    ::testing::Values(AssignParam{512, 8, 8, 0}, AssignParam{512, 8, 8, 5},
                      AssignParam{512, 2, 2, 1}, AssignParam{128, 4, 4, 2},
                      AssignParam{64, 16, 16, 3}, AssignParam{32, 1, 1, 9},
                      AssignParam{16, 16, 16, 4} /* rows == n */));

// ----------------------------------------------------- Custody completion

class CustodyProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CustodyProperty, LineCompletesAtExactlyK) {
  const std::uint32_t k = GetParam();
  core::ProtocolParams params;
  params.matrix_k = k;
  params.matrix_n = 2 * k;
  core::AssignedLines lines;
  lines.rows = {3};
  core::CustodyState cs(params, lines);

  util::Xoshiro256 rng(k);
  const auto order = rng.sample_distinct(params.matrix_n, params.matrix_n);
  for (std::uint32_t i = 0; i < params.matrix_n; ++i) {
    if (cs.line_complete(net::LineRef::row(3))) break;
    const std::vector<net::CellId> one{
        {3, static_cast<std::uint16_t>(order[i])}};
    const auto res = cs.add_cells(one, false);
    if (i + 1 < k) {
      EXPECT_TRUE(res.completed.empty()) << "completed before k at " << i + 1;
    } else if (i + 1 == k) {
      EXPECT_EQ(res.completed.size(), 1u) << "did not complete at k";
      EXPECT_EQ(res.reconstructed, params.matrix_n - k);
    }
  }
  EXPECT_TRUE(cs.line_complete(net::LineRef::row(3)));
}

INSTANTIATE_TEST_SUITE_P(Ks, CustodyProperty,
                         ::testing::Values(1u, 2u, 4u, 16u, 64u, 256u));

// --------------------------------------------------------- Loss accounting

class LossProperty : public ::testing::TestWithParam<double> {};

TEST_P(LossProperty, CellLossMatchesRate) {
  const double rate = GetParam();
  util::Xoshiro256 rng(17);
  // Emulate the transport's chunked loss at the message level.
  const std::size_t cells_per_packet =
      std::max<std::size_t>(1, net::kPacketPayloadBytes / net::kCellWireBytes);
  std::uint64_t sent = 0, lost = 0;
  for (int msg = 0; msg < 300; ++msg) {
    const std::size_t cells = 400;
    for (std::size_t base = 0; base < cells; base += cells_per_packet) {
      const std::size_t in_packet = std::min(cells_per_packet, cells - base);
      sent += in_packet;
      if (rng.bernoulli(rate)) lost += in_packet;
    }
  }
  EXPECT_NEAR(static_cast<double>(lost) / static_cast<double>(sent), rate,
              0.02 + rate * 0.2);
}

INSTANTIATE_TEST_SUITE_P(Rates, LossProperty,
                         ::testing::Values(0.01, 0.03, 0.1, 0.3));

// ---------------------------------------------------------- Topology seeds

class TopologyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopologyProperty, InvariantsAcrossSeeds) {
  sim::TopologyConfig cfg;
  cfg.vertices = 1500;
  const auto topo = sim::Topology::generate(cfg, GetParam());
  util::Xoshiro256 rng(GetParam() + 1);
  double sum = 0;
  const int pairs = 4000;
  for (int i = 0; i < pairs; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.uniform(cfg.vertices));
    const auto v = static_cast<std::uint32_t>(rng.uniform(cfg.vertices));
    const double rtt = topo.rtt_ms(u, v);
    EXPECT_GE(rtt, sim::kMinRttMs);
    EXPECT_LE(rtt, sim::kMaxRttMs);
    EXPECT_DOUBLE_EQ(rtt, topo.rtt_ms(v, u));
    sum += rtt;
  }
  // Mean within a broad planetary band for every seed.
  EXPECT_GT(sum / pairs, 30.0);
  EXPECT_LT(sum / pairs, 120.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyProperty,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));

}  // namespace
}  // namespace pandas
