#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "core/custody.h"
#include "core/query_buffer.h"
#include "util/prng.h"

namespace pandas::core {
namespace {

using QueryId = QueryBuffer::QueryId;

/// The buffered-query service QueryBuffer replaced, kept verbatim as the
/// oracle: every ingest rescans each pending query's remaining cells with a
/// has_cell predicate and erases the served ones from the middle.
class ScanOracle {
 public:
  struct Served {
    net::NodeIndex requester;
    std::vector<net::CellId> cells;
    bool operator==(const Served&) const = default;
  };

  void add(net::NodeIndex requester, std::vector<net::CellId> remaining) {
    PendingQuery pq;
    pq.requester = requester;
    pq.cells = remaining;
    pq.remaining = std::move(remaining);
    pending_.push_back(std::move(pq));
  }

  template <typename HasCell>
  std::vector<Served> serve_pending(HasCell has_cell) {
    std::vector<Served> out;
    for (auto it = pending_.begin(); it != pending_.end();) {
      auto& pq = *it;
      pq.remaining.erase(
          std::remove_if(pq.remaining.begin(), pq.remaining.end(),
                         [&](net::CellId c) { return has_cell(c); }),
          pq.remaining.end());
      if (pq.remaining.empty()) {
        out.push_back({pq.requester, std::move(pq.cells)});
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    return out;
  }

  void clear() { pending_.clear(); }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }

 private:
  struct PendingQuery {
    net::NodeIndex requester = 0;
    std::vector<net::CellId> cells;
    std::vector<net::CellId> remaining;
  };
  std::vector<PendingQuery> pending_;
};

std::vector<ScanOracle::Served> served(QueryBuffer& buf,
                                       std::span<const QueryId> ids) {
  std::vector<ScanOracle::Served> out;
  for (const auto id : ids) out.push_back({buf.requester(id), buf.cells(id)});
  return out;
}

std::vector<ScanOracle::Served> obtain(QueryBuffer& buf,
                                       std::vector<net::CellId> cells) {
  return served(buf, buf.on_obtained(cells));
}

/// Drives both implementations with one randomized add/obtain sequence over
/// a small cell universe (so waits overlap) and requires identical service.
void run_differential(std::uint64_t seed, std::uint16_t side,
                      std::size_t steps) {
  util::Xoshiro256 rng(seed);
  QueryBuffer buf;
  ScanOracle oracle;
  std::unordered_set<std::uint32_t> held;
  const auto has_cell = [&](net::CellId c) {
    return held.count(c.packed()) != 0;
  };
  const auto random_cell = [&]() {
    return net::CellId{static_cast<std::uint16_t>(rng.uniform(side)),
                       static_cast<std::uint16_t>(rng.uniform(side))};
  };
  net::NodeIndex next_requester = 0;
  for (std::size_t step = 0; step < steps; ++step) {
    const auto action = rng.uniform(100);
    if (action < 2) {
      // Slot boundary: both forget everything, custody restarts.
      buf.clear();
      oracle.clear();
      held.clear();
    } else if (action < 50) {
      // A query for 1..8 cells, repeats allowed; only the unheld part is
      // buffered, exactly as the node handlers split it.
      std::vector<net::CellId> remaining;
      const auto n = 1 + rng.uniform(8);
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto c = random_cell();
        if (!has_cell(c)) remaining.push_back(c);
      }
      if (remaining.empty()) continue;
      const net::NodeIndex requester = next_requester++;
      buf.add(requester, remaining);
      oracle.add(requester, remaining);
    } else {
      // An ingest of 0..12 cells: the obtained list names each newly held
      // cell once, in ingest order; duplicates and held cells drop out.
      std::vector<net::CellId> obtained;
      const auto n = rng.uniform(13);
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto c = random_cell();
        if (held.insert(c.packed()).second) obtained.push_back(c);
      }
      const auto expect =
          obtained.empty() ? std::vector<ScanOracle::Served>{}
                           : oracle.serve_pending(has_cell);
      ASSERT_EQ(obtain(buf, obtained), expect)
          << "seed " << seed << " step " << step;
    }
    ASSERT_EQ(buf.pending(), oracle.pending()) << "seed " << seed;
  }
}

TEST(QueryBuffer, MatchesScanOracleOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_differential(seed, /*side=*/6, /*steps=*/4000);
    run_differential(seed * 7919, /*side=*/24, /*steps=*/4000);
  }
}

TEST(QueryBuffer, RepeatedCellWithinOneQuery) {
  QueryBuffer buf;
  const net::CellId a{1, 2};
  const net::CellId b{3, 4};
  buf.add(7, std::vector<net::CellId>{a, b, a});
  EXPECT_TRUE(obtain(buf, {a}).empty());
  const auto out = obtain(buf, {b});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].requester, 7u);
  EXPECT_EQ(out[0].cells, (std::vector<net::CellId>{a, b, a}));
  EXPECT_EQ(buf.pending(), 0u);
}

TEST(QueryBuffer, SeveralQueriesWaitOnOneCell) {
  QueryBuffer buf;
  const net::CellId c{5, 5};
  buf.add(1, std::vector<net::CellId>{c});
  buf.add(2, std::vector<net::CellId>{{0, 1}, c});
  buf.add(3, std::vector<net::CellId>{c});
  const auto out = obtain(buf, {c});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].requester, 1u);
  EXPECT_EQ(out[1].requester, 3u);
  EXPECT_EQ(buf.pending(), 1u);
  const auto rest = obtain(buf, {{0, 1}});
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].requester, 2u);
  EXPECT_EQ(rest[0].cells, (std::vector<net::CellId>{{0, 1}, c}));
}

TEST(QueryBuffer, SeveralQueriesCompleteInOneCallInArrivalOrder) {
  QueryBuffer buf;
  // Completion is triggered in reverse arrival order within the batch.
  buf.add(10, std::vector<net::CellId>{{0, 3}});
  buf.add(11, std::vector<net::CellId>{{0, 2}});
  buf.add(12, std::vector<net::CellId>{{0, 1}, {0, 9}});
  const auto out = obtain(buf, {{0, 1}, {0, 2}, {0, 3}, {0, 9}});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].requester, 10u);
  EXPECT_EQ(out[1].requester, 11u);
  EXPECT_EQ(out[2].requester, 12u);
}

TEST(QueryBuffer, ObtainedCellsNobodyWaitsOnAreIgnored) {
  QueryBuffer buf;
  EXPECT_TRUE(obtain(buf, {{1, 1}}).empty());  // empty buffer
  buf.add(4, std::vector<net::CellId>{{2, 2}});
  EXPECT_TRUE(obtain(buf, {{1, 1}, {3, 3}}).empty());
  EXPECT_EQ(buf.pending(), 1u);
  EXPECT_EQ(obtain(buf, {{3, 3}, {2, 2}}).size(), 1u);
}

TEST(QueryBuffer, ClearAtBeginSlotForgetsEverything) {
  QueryBuffer buf;
  buf.add(1, std::vector<net::CellId>{{1, 1}});
  buf.add(2, std::vector<net::CellId>{{2, 2}, {1, 1}});
  buf.clear();
  EXPECT_EQ(buf.pending(), 0u);
  EXPECT_TRUE(obtain(buf, {{1, 1}, {2, 2}}).empty());
  // A fresh slot starts ids over and serves normally.
  EXPECT_EQ(buf.add(3, std::vector<net::CellId>{{1, 1}}), 0u);
  const auto out = obtain(buf, {{1, 1}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].requester, 3u);
}

TEST(QueryBuffer, IdsRestartOnlyOnceDrained) {
  QueryBuffer buf;
  EXPECT_EQ(buf.add(1, std::vector<net::CellId>{{1, 1}}), 0u);
  EXPECT_EQ(buf.add(2, std::vector<net::CellId>{{2, 2}}), 1u);
  EXPECT_EQ(obtain(buf, {{1, 1}}).size(), 1u);
  EXPECT_EQ(buf.add(3, std::vector<net::CellId>{{3, 3}}), 2u);  // 1 still waits
  EXPECT_EQ(obtain(buf, {{2, 2}, {3, 3}}).size(), 2u);
  EXPECT_EQ(buf.add(4, std::vector<net::CellId>{{4, 4}}), 0u);  // recycled
}

TEST(QueryBuffer, HeadTableSurvivesGrowthAndDeletion) {
  // Thousands of distinct waited cells force several table doublings and
  // long probe runs; serving them in a scattered order exercises the
  // backward-shift delete.
  QueryBuffer buf;
  std::vector<net::CellId> cells;
  for (std::uint16_t r = 0; r < 64; ++r) {
    for (std::uint16_t c = 0; c < 64; ++c) cells.push_back({r, c});
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    buf.add(static_cast<net::NodeIndex>(i), std::span(&cells[i], 1));
  }
  util::Xoshiro256 rng(3);
  auto order = cells;
  rng.shuffle(order);
  std::size_t served_count = 0;
  for (const auto c : order) {
    const auto out = obtain(buf, {c});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].cells.front(), c);
    ++served_count;
  }
  EXPECT_EQ(served_count, cells.size());
  EXPECT_EQ(buf.pending(), 0u);
}

// QueryBuffer is exact only because CustodyState::AddResult::obtained names
// every cell whose has_cell() flipped to true — received cells and
// reconstruction cascades alike — and nothing else. Pin that on random
// ingests over a small code with two crossing rows and columns.
TEST(QueryBuffer, CustodyObtainedIsExactlyTheNewlyHeldCells) {
  ProtocolParams params;
  params.matrix_k = 8;
  params.matrix_n = 16;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Xoshiro256 rng(seed);
    AssignedLines lines;
    lines.rows = {2, 9};
    lines.cols = {4, 13};
    CustodyState custody(params, lines);
    std::vector<bool> before(params.matrix_n * params.matrix_n, false);
    std::size_t cascades = 0;
    for (int round = 0; round < 40; ++round) {
      std::vector<net::CellId> batch;
      const auto n = 1 + rng.uniform(6);
      for (std::uint64_t i = 0; i < n; ++i) {
        // Mostly cells of the assigned lines, sometimes an extra.
        const auto pos = static_cast<std::uint16_t>(rng.uniform(16));
        switch (rng.uniform(5)) {
          case 0: batch.push_back({lines.rows[rng.uniform(2)], pos}); break;
          case 1: batch.push_back({pos, lines.cols[rng.uniform(2)]}); break;
          case 2: batch.push_back({lines.rows[0], pos}); break;
          case 3: batch.push_back({pos, lines.cols[1]}); break;
          default:
            batch.push_back({static_cast<std::uint16_t>(rng.uniform(16)), pos});
        }
      }
      const auto result = custody.add_cells(batch, /*keep_extras=*/true);
      if (result.reconstructed > 0) ++cascades;
      std::vector<std::uint32_t> flipped;
      for (std::uint16_t r = 0; r < params.matrix_n; ++r) {
        for (std::uint16_t c = 0; c < params.matrix_n; ++c) {
          const bool now = custody.has_cell({r, c});
          auto&& was = before[r * params.matrix_n + c];
          EXPECT_FALSE(was && !now) << "a held cell was dropped";
          if (now && !was) flipped.push_back(net::CellId{r, c}.packed());
          was = now;
        }
      }
      std::vector<std::uint32_t> obtained;
      for (const auto c : result.obtained) obtained.push_back(c.packed());
      std::sort(obtained.begin(), obtained.end());
      EXPECT_EQ(std::adjacent_find(obtained.begin(), obtained.end()),
                obtained.end())
          << "a cell is named twice";
      EXPECT_EQ(obtained, flipped) << "seed " << seed << " round " << round;
    }
    EXPECT_GT(cascades, 0u) << "seed " << seed << " never reconstructed";
  }
}

}  // namespace
}  // namespace pandas::core
