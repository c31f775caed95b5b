#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>

#include "core/fetcher.h"
#include "core/reputation.h"
#include "core/rtt.h"

namespace pandas::core {
namespace {

/// Small deterministic world for fetcher unit tests: 6 nodes, 8x8 matrix
/// (k=4), explicit assignments.
struct World {
  ProtocolParams params;
  std::vector<AssignedLines> assignments;
  std::unique_ptr<AssignmentTable> table;
  sim::Engine engine{1};
  View view;

  World() {
    params.matrix_k = 4;
    params.matrix_n = 8;
    params.rows_per_node = 1;
    params.cols_per_node = 1;
    params.candidates_per_line = 0;  // exhaustive for tests

    // node 0: row 0 / col 0; node 1: row 0 / col 1; node 2: row 1 / col 0;
    // node 3: row 1 / col 1; node 4: row 2 / col 2; node 5: row 3 / col 3.
    assignments.resize(6);
    auto set = [&](std::size_t i, std::uint16_t r, std::uint16_t c) {
      assignments[i].rows = {r};
      assignments[i].cols = {c};
    };
    set(0, 0, 0);
    set(1, 0, 1);
    set(2, 1, 0);
    set(3, 1, 1);
    set(4, 2, 2);
    set(5, 3, 3);
    table = std::make_unique<AssignmentTable>(params, assignments);
    view = View::full(6);
  }

  std::shared_ptr<AdaptiveFetcher> make_fetcher(net::NodeIndex self) {
    return std::make_shared<AdaptiveFetcher>(engine, params, *table, &view,
                                             self, engine.rng_stream(self));
  }
};

using Queries = std::map<net::NodeIndex, std::vector<net::CellId>>;

AdaptiveFetcher::SendQueryFn collect(Queries& out) {
  return [&out](net::NodeIndex target, std::vector<net::CellId> cells,
                std::uint32_t /*round*/, bool /*redraw*/) {
    auto& v = out[target];
    v.insert(v.end(), cells.begin(), cells.end());
  };
}

TEST(Fetcher, EmptyNeedIsImmediatelyComplete) {
  World w;
  auto f = w.make_fetcher(0);
  Queries q;
  f->start({}, {}, collect(q));
  EXPECT_TRUE(f->complete());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(f->rounds_used(), 0u);
}

TEST(Fetcher, QueriesOnlyAssignedNodes) {
  World w;
  auto f = w.make_fetcher(0);  // self = node 0
  // Want cell (1, 5): row 1 -> nodes 2, 3; col 5 -> nobody.
  const std::vector<net::CellId> needed{{1, 5}};
  Queries q;
  f->start(needed, {}, collect(q));
  ASSERT_FALSE(q.empty());
  for (const auto& [node, cells] : q) {
    EXPECT_TRUE(node == 2 || node == 3) << "queried node " << node;
    for (const auto c : cells) EXPECT_EQ(c, (net::CellId{1, 5}));
  }
}

TEST(Fetcher, NeverQueriesSelfOrOutOfView) {
  World w;
  w.view = View::full(6);
  auto f = w.make_fetcher(2);  // node 2 is assigned row 1
  const std::vector<net::CellId> needed{{1, 5}};
  Queries q;
  f->start(needed, {}, collect(q));
  EXPECT_EQ(q.count(2), 0u) << "must not query itself";

  // Restrict the view to exclude node 3: only... nobody left for row 1.
  World w2;
  util::Xoshiro256 vrng(5);
  // Build a view containing only nodes {0, 1, 2} (excludes 3).
  w2.view = View::random_subset(6, 0.0, vrng, 0);
  auto f2 = w2.make_fetcher(0);
  Queries q2;
  f2->start(needed, {}, collect(q2));
  EXPECT_TRUE(q2.empty()) << "no eligible candidate in view";
  EXPECT_FALSE(f2->complete());
}

TEST(Fetcher, EachNodeQueriedOncePerCycle) {
  World w;
  auto f = w.make_fetcher(0);
  const std::vector<net::CellId> needed{{1, 5}, {1, 6}};
  std::map<net::NodeIndex, int> messages;
  f->start(needed, {},
           [&](net::NodeIndex target, std::vector<net::CellId>, std::uint32_t,
               bool) { messages[target] += 1; });
  // Within the first fetch cycle (before the 2-node candidate pool is
  // exhausted) nobody is queried twice.
  w.engine.run_until(500 * sim::kMillisecond);
  for (const auto& [node, count] : messages) {
    EXPECT_EQ(count, 1) << "node " << node << " queried twice in one cycle";
  }
  // With no replies ever arriving, the fetcher starts fresh cycles rather
  // than stalling (lagging nodes re-fetch within the slot, §8.2) — but each
  // cycle still queries a node at most once.
  messages.clear();
  w.engine.run_until(10 * sim::kSecond);
  int max_count = 0;
  for (const auto& [node, count] : messages) max_count = std::max(max_count, count);
  EXPECT_GT(max_count, 0) << "re-query cycles should continue";
  EXPECT_FALSE(f->complete());
}

TEST(Fetcher, RedundancyGrowsAcrossRounds) {
  World w;
  auto f = w.make_fetcher(0);
  const std::vector<net::CellId> needed{{1, 5}};  // servable by nodes 2 and 3
  Queries q;
  f->start(needed, {}, collect(q));
  EXPECT_EQ(q.size(), 1u);  // round 1: k=1 -> one node
  w.engine.run_until(sim::kSecond);
  // Round 2 wants cumulative coverage 2 -> the second node gets queried too.
  EXPECT_EQ(q.size(), 2u);
}

TEST(Fetcher, ObtainedCellsLeaveF) {
  World w;
  auto f = w.make_fetcher(0);
  const std::vector<net::CellId> needed{{1, 5}, {2, 2}};
  Queries q;
  f->start(needed, {}, collect(q));
  EXPECT_EQ(f->outstanding(), 2u);
  const std::vector<net::CellId> got{{1, 5}};
  f->on_cells_obtained(got);
  EXPECT_EQ(f->outstanding(), 1u);
  f->on_cells_obtained(got);  // idempotent
  EXPECT_EQ(f->outstanding(), 1u);
  const std::vector<net::CellId> got2{{2, 2}};
  f->on_cells_obtained(got2);
  EXPECT_TRUE(f->complete());
  EXPECT_EQ(f->initial_outstanding(), 2u);
}

TEST(Fetcher, StopsWhenComplete) {
  World w;
  auto f = w.make_fetcher(0);
  const std::vector<net::CellId> needed{{1, 5}};
  Queries q;
  f->start(needed, {}, collect(q));
  const std::vector<net::CellId> got{{1, 5}};
  f->on_cells_obtained(got);
  w.engine.run_until(5 * sim::kSecond);
  EXPECT_TRUE(f->complete());
  // No further queries after completion.
  EXPECT_LE(q.size(), 1u);
  EXPECT_LE(f->rounds_used(), 2u);
}

TEST(Fetcher, BoostedCandidatePreferredAndAskedSeededCells) {
  World w;
  // Node 0 fetches its row 0 cells; boost says node 1 was seeded cells
  // (0,2) and (0,3).
  auto lb = std::make_shared<net::LineBoost>();
  lb->line = net::LineRef::row(0);
  lb->entries = {{1, 2}, {1, 3}};
  lb->finalize();
  net::BoostMap boost{lb};

  auto f = w.make_fetcher(0);
  const std::vector<net::CellId> needed{{0, 2}, {0, 3}};
  Queries q;
  f->start(needed, boost, collect(q));
  // k=1: both cells should be planned on the boosted node 1, nothing else.
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.begin()->first, 1u);
  EXPECT_EQ(q.begin()->second.size(), 2u);
}

TEST(Fetcher, RoundStatsAttribution) {
  World w;
  auto f = w.make_fetcher(0);
  const std::vector<net::CellId> needed{{1, 5}};
  Queries q;
  f->start(needed, {}, collect(q));
  ASSERT_EQ(q.size(), 1u);
  const auto target = q.begin()->first;

  // Reply arrives within the 400 ms round-1 window.
  w.engine.schedule_at(100 * sim::kMillisecond, [&] {
    const std::vector<net::CellId> got{{1, 5}};
    f->on_cells_obtained(got);
    f->on_reply(target, 1, 0, 0);
  });
  w.engine.run_until(2 * sim::kSecond);
  const auto& stats = f->round_stats();
  ASSERT_GE(stats.size(), 1u);
  EXPECT_EQ(stats[0].messages_sent, 1u);
  EXPECT_EQ(stats[0].cells_requested, 1u);
  EXPECT_EQ(stats[0].replies_in_round, 1u);
  EXPECT_EQ(stats[0].cells_in_round, 1u);
  EXPECT_EQ(stats[0].replies_after_round, 0u);
}

TEST(Fetcher, LateReplyAttributedAfterRound) {
  World w;
  auto f = w.make_fetcher(0);
  const std::vector<net::CellId> needed{{1, 5}, {2, 2}};
  Queries q;
  f->start(needed, {}, collect(q));
  std::vector<net::NodeIndex> round1_targets;
  for (const auto& [node, cells] : q) round1_targets.push_back(node);

  // Reply from a round-1 target lands 500 ms later (past the 400 ms round-1
  // window but before the candidate pool exhausts and a new cycle begins).
  w.engine.schedule_at(500 * sim::kMillisecond, [&] {
    const std::vector<net::CellId> got{{1, 5}};
    f->on_cells_obtained(got);
    f->on_reply(round1_targets.front(), 1, 0, 0);
  });
  w.engine.run_until(600 * sim::kMillisecond);
  const auto& stats = f->round_stats();
  ASSERT_GE(stats.size(), 1u);
  EXPECT_EQ(stats[0].replies_after_round, 1u);
  EXPECT_EQ(stats[0].cells_after_round, 1u);
}

TEST(Fetcher, MaxRoundsBoundsEffort) {
  World w;
  w.params.max_rounds = 3;
  w.table = std::make_unique<AssignmentTable>(w.params, w.assignments);
  auto f = std::make_shared<AdaptiveFetcher>(w.engine, w.params, *w.table,
                                             &w.view, 0, w.engine.rng_stream(9));
  const std::vector<net::CellId> needed{{7, 7}};  // nobody assigned
  Queries q;
  f->start(needed, {}, collect(q));
  w.engine.run_until(30 * sim::kSecond);
  EXPECT_LE(f->rounds_used(), 3u);
  EXPECT_FALSE(f->complete());
}

// ------------------------------------------------------------ hedging / RTO
//
// A PeerRtt seeded with a 25 ms prior yields RTO = 25 + 4*12.5 = 75 ms —
// well inside the 400 ms round-1 window, so the hedge machinery fires
// deterministically in these tests.

TEST(FetcherHedging, RtoExpiryHedgesToSecondCustodian) {
  World w;
  w.params.hedging = true;
  PeerRtt rtt;
  rtt.set_prior([](std::uint32_t) { return 25.0; });
  auto f = w.make_fetcher(0);
  f->set_rtt(&rtt);
  // Cell (1,5): exactly two custodians, nodes 2 and 3. Round 1 (k=1)
  // queries one; the RTO at 75 ms hedges to the other.
  const std::vector<net::CellId> needed{{1, 5}};
  Queries q;
  f->start(needed, {}, collect(q));
  ASSERT_EQ(q.size(), 1u);
  w.engine.run_until(200 * sim::kMillisecond);  // before round 2 at 400 ms
  EXPECT_EQ(f->hedges_sent(), 1u);
  EXPECT_EQ(q.size(), 2u) << "hedge must reach the second custodian";
  EXPECT_TRUE(f->was_queried(2));
  EXPECT_TRUE(f->was_queried(3));
  // The hedge target's own RTO also expires (nobody replies), but with both
  // custodians queried there is no third candidate to hedge to.
  EXPECT_EQ(f->rto_expirations(), 2u);
  EXPECT_EQ(f->hedge_wins(), 0u);
}

TEST(FetcherHedging, ReplyBeforeRtoSuppressesHedge) {
  World w;
  w.params.hedging = true;
  PeerRtt rtt;
  rtt.set_prior([](std::uint32_t) { return 25.0; });
  auto f = w.make_fetcher(0);
  f->set_rtt(&rtt);
  const std::vector<net::CellId> needed{{1, 5}};
  Queries q;
  f->start(needed, {}, collect(q));
  ASSERT_EQ(q.size(), 1u);
  const auto target = q.begin()->first;
  // The queried peer answers at 50 ms, beating the 75 ms RTO.
  w.engine.schedule_at(50 * sim::kMillisecond, [&, target] {
    const std::vector<net::CellId> got{{1, 5}};
    f->on_cells_obtained(got);
    f->on_reply(target, 1, 0, 0);
  });
  w.engine.run_until(sim::kSecond);
  EXPECT_TRUE(f->complete());
  EXPECT_EQ(f->rto_expirations(), 0u);
  EXPECT_EQ(f->hedges_sent(), 0u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(FetcherHedging, HedgeWinCountedWhenHedgeBeatsSlowPeer) {
  World w;
  w.params.hedging = true;
  PeerRtt rtt;
  rtt.set_prior([](std::uint32_t) { return 25.0; });
  auto f = w.make_fetcher(0);
  f->set_rtt(&rtt);
  const std::vector<net::CellId> needed{{1, 5}};
  Queries q;
  f->start(needed, {}, collect(q));
  ASSERT_EQ(q.size(), 1u);
  const auto slow = q.begin()->first;
  // Run past the RTO so the hedge goes out, then answer from the hedge
  // target while the slow peer is still silent.
  w.engine.run_until(100 * sim::kMillisecond);
  ASSERT_EQ(f->hedges_sent(), 1u);
  ASSERT_EQ(q.size(), 2u);
  net::NodeIndex hedge_target = net::kInvalidNode;
  for (const auto& [node, cells] : q) {
    if (node != slow) hedge_target = node;
  }
  ASSERT_NE(hedge_target, net::kInvalidNode);
  const std::vector<net::CellId> got{{1, 5}};
  f->on_cells_obtained(got);
  f->on_reply(hedge_target, 1, 0, 0);
  EXPECT_EQ(f->hedge_wins(), 1u);
  EXPECT_TRUE(f->complete());
  // The slow peer's eventual reply is not a second win.
  f->on_reply(slow, 0, 1, 0);
  EXPECT_EQ(f->hedge_wins(), 1u);
}

TEST(FetcherHedging, LastResortLadderReachesExtraCustodians) {
  World w;
  w.params.hedging = true;
  PeerRtt rtt;
  rtt.set_prior([](std::uint32_t) { return 25.0; });
  auto f = w.make_fetcher(0);
  f->set_rtt(&rtt);
  f->set_last_resort([] { return std::vector<net::NodeIndex>{5}; });
  // Cell (2,2): node 4 is the only assigned custodian. Once it is queried
  // the scored rungs are empty, so the hedge falls through to the
  // last-resort hook (e.g. DHT-discovered holders).
  const std::vector<net::CellId> needed{{2, 2}};
  Queries q;
  f->start(needed, {}, collect(q));
  ASSERT_EQ(q.size(), 1u);
  ASSERT_EQ(q.begin()->first, 4u);
  w.engine.run_until(200 * sim::kMillisecond);
  EXPECT_EQ(f->hedges_sent(), 1u);
  EXPECT_TRUE(f->was_queried(5));
}

TEST(FetcherHedging, OffByDefaultKeepsCountersZeroAndQueriesIdentical) {
  // With params.hedging false (the default), attaching an estimator must
  // not change the query stream at all: same targets, same cells, and all
  // hedging counters pinned at zero.
  World plain;
  auto f_plain = plain.make_fetcher(0);
  Queries q_plain;
  const std::vector<net::CellId> needed{{1, 5}, {2, 2}};
  f_plain->start(needed, {}, collect(q_plain));
  plain.engine.run_until(sim::kSecond);

  World timed;
  PeerRtt rtt;
  rtt.set_prior([](std::uint32_t) { return 25.0; });
  auto f_timed = timed.make_fetcher(0);
  f_timed->set_rtt(&rtt);
  Queries q_timed;
  f_timed->start(needed, {}, collect(q_timed));
  timed.engine.run_until(sim::kSecond);

  EXPECT_EQ(q_plain, q_timed);
  EXPECT_EQ(f_timed->rto_expirations(), 0u);
  EXPECT_EQ(f_timed->hedges_sent(), 0u);
  EXPECT_EQ(f_timed->hedge_wins(), 0u);
}

TEST(FetcherHedging, HedgedPairChargesAndRedeemsSlowPeerExactlyOnce) {
  // The reputation contract under hedging: the RTO expiry itself charges
  // nothing; only the round deadline charges the silent peer, once; and the
  // peer's late reply redeems that single charge, once — replayed replies
  // must not redeem further.
  World w;
  w.params.hedging = true;
  PeerReputation rep;
  PeerRtt rtt;
  rtt.set_prior([](std::uint32_t) { return 25.0; });
  auto f = std::make_shared<AdaptiveFetcher>(w.engine, w.params, *w.table,
                                             &w.view, 0,
                                             w.engine.rng_stream(0), &rep);
  f->set_rtt(&rtt);
  const std::vector<net::CellId> needed{{1, 5}};
  Queries q;
  f->start(needed, {}, collect(q));
  ASSERT_EQ(q.size(), 1u);
  const auto slow = q.begin()->first;

  // The hedge target answers at 100 ms (after the 75 ms RTO fired).
  w.engine.schedule_at(100 * sim::kMillisecond, [&] {
    for (const auto& [node, cells] : q) {
      if (node == slow) continue;
      const std::vector<net::CellId> got{{1, 5}};
      f->on_cells_obtained(got);
      f->on_reply(node, 1, 0, 0);
    }
  });

  // Past the RTO but before the 400 ms round deadline: the expiry alone
  // must not have charged the slow peer.
  w.engine.run_until(300 * sim::kMillisecond);
  EXPECT_GE(f->rto_expirations(), 1u);
  EXPECT_EQ(f->hedge_wins(), 1u);
  EXPECT_EQ(rep.timeout_events(), 0u);
  EXPECT_DOUBLE_EQ(rep.penalty(slow), 0.0);

  // The round deadline passes: exactly one timeout charged, to the slow
  // peer only (the hedge target replied in time).
  w.engine.run_until(500 * sim::kMillisecond);
  EXPECT_EQ(rep.timeout_events(), 1u);
  EXPECT_DOUBLE_EQ(rep.penalty(slow), kRepTimeoutPenalty);

  // The slow peer finally replies (late, duplicate data): the one charge is
  // redeemed...
  f->on_reply(slow, 0, 1, 0);
  EXPECT_DOUBLE_EQ(rep.penalty(slow), 0.0);
  EXPECT_EQ(rep.timeout_events(), 1u);
  // ...and a replayed late reply finds nothing left to redeem: the penalty
  // stays floored at zero instead of going negative (redemption is capped
  // by what was actually charged — exactly once per charged timeout).
  f->on_reply(slow, 0, 1, 0);
  EXPECT_DOUBLE_EQ(rep.penalty(slow), 0.0);
  EXPECT_EQ(rep.timeout_events(), 1u) << "replay must not charge either";
}

TEST(Fetcher, UnsolicitedReplyIgnored) {
  World w;
  auto f = w.make_fetcher(0);
  const std::vector<net::CellId> needed{{1, 5}};
  Queries q;
  f->start(needed, {}, collect(q));
  f->on_reply(/*from=*/5, 3, 1, 0);  // node 5 was never queried
  const auto& stats = f->round_stats();
  ASSERT_GE(stats.size(), 1u);
  EXPECT_EQ(stats[0].replies_in_round + stats[0].replies_after_round, 0u);
}

// ------------------------------------------------------------- FetchSet

/// The fetcher's fetch-set bookkeeping as it was before FetchSet: F as sorted
/// (line, bitmap) vectors found by binary search, coverage in a hash map,
/// `under` by scanning every cell of F, and interest lists built from
/// set_bits plus sort and unique. Kept only as the oracle for FetchSet.
class OldFetchState {
 public:
  explicit OldFetchState(std::uint32_t n) : n_(n) {}

  void add(net::CellId cell) {
    auto& row = line_for_add(rows_, cell.row);
    if (row.test(cell.col)) return;
    row.set(cell.col);
    line_for_add(cols_, cell.col).set(cell.row);
    ++outstanding_;
  }
  void remove(net::CellId cell) {
    auto* row = find_line(rows_, cell.row);
    if (row == nullptr || !row->test(cell.col)) return;
    row->reset(cell.col);
    if (auto* col = find_line(cols_, cell.col)) col->reset(cell.row);
    coverage_.erase(cell.packed());
    --outstanding_;
  }
  [[nodiscard]] bool contains(net::CellId cell) {
    const auto* row = find_line(rows_, cell.row);
    return row != nullptr && row->test(cell.col);
  }
  void cover(net::CellId cell) { ++coverage_[cell.packed()]; }
  void uncover(net::CellId cell) {
    const auto it = coverage_.find(cell.packed());
    if (it != coverage_.end() && it->second > 0) --it->second;
  }
  void reset_coverage() { coverage_.clear(); }

  [[nodiscard]] std::uint32_t line_count(net::LineRef line) {
    const auto* bm = find_line(line.kind == net::LineRef::Kind::kRow ? rows_ : cols_,
                               line.index);
    return bm == nullptr ? 0 : bm->count_prefix(n_);
  }
  [[nodiscard]] bool has_line(net::LineRef line) {
    return find_line(line.kind == net::LineRef::Kind::kRow ? rows_ : cols_,
                     line.index) != nullptr;
  }
  [[nodiscard]] std::vector<std::uint16_t> line_order(net::LineRef::Kind kind) const {
    std::vector<std::uint16_t> out;
    for (const auto& [index, bm] : kind == net::LineRef::Kind::kRow ? rows_ : cols_) {
      out.push_back(index);
    }
    return out;
  }
  [[nodiscard]] std::uint32_t coverage(net::CellId cell) const {
    const auto it = coverage_.find(cell.packed());
    return it == coverage_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::uint64_t under(std::uint32_t k) const {
    std::uint64_t under = 0;
    for (const auto& [row, bm] : rows_) {
      for (const auto col : bm.set_bits(n_)) {
        const net::CellId cell{row, static_cast<std::uint16_t>(col)};
        const auto it = coverage_.find(cell.packed());
        if (it == coverage_.end() || it->second < k) ++under;
      }
    }
    return under;
  }
  /// Cells under k on a node's lines, counted line by line.
  [[nodiscard]] std::uint32_t under_in_lines(const AssignedLines& lines,
                                             std::uint32_t k) {
    std::uint32_t total = 0;
    auto tally = [&](const util::Bitmap512* bm, auto cell_at) {
      if (bm == nullptr) return;
      for (const auto pos : bm->set_bits(n_)) {
        if (coverage(cell_at(static_cast<std::uint16_t>(pos))) < k) ++total;
      }
    };
    for (const auto r : lines.rows) {
      tally(find_line(rows_, r), [r](std::uint16_t c) { return net::CellId{r, c}; });
    }
    for (const auto c : lines.cols) {
      tally(find_line(cols_, c), [c](std::uint16_t r) { return net::CellId{r, c}; });
    }
    return total;
  }
  [[nodiscard]] std::uint32_t interest_count(const AssignedLines& lines) {
    std::uint32_t interest = 0;
    for (const auto r : lines.rows) interest += line_count(net::LineRef::row(r));
    for (const auto c : lines.cols) interest += line_count(net::LineRef::col(c));
    return interest;
  }
  [[nodiscard]] std::vector<net::CellId> interest(const AssignedLines& lines) {
    std::vector<net::CellId> out;
    for (const auto r : lines.rows) {
      if (const auto* bm = find_line(rows_, r)) {
        for (const auto col : bm->set_bits(n_)) {
          out.push_back({r, static_cast<std::uint16_t>(col)});
        }
      }
    }
    for (const auto c : lines.cols) {
      if (const auto* bm = find_line(cols_, c)) {
        for (const auto row : bm->set_bits(n_)) {
          out.push_back({static_cast<std::uint16_t>(row), c});
        }
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
  [[nodiscard]] const std::unordered_map<std::uint32_t, std::uint32_t>&
  coverage_map() const {
    return coverage_;
  }
  [[nodiscard]] std::uint64_t outstanding() const { return outstanding_; }

 private:
  using MissingMap = std::vector<std::pair<std::uint16_t, util::Bitmap512>>;

  static util::Bitmap512* find_line(MissingMap& map, std::uint16_t index) {
    const auto it = std::lower_bound(
        map.begin(), map.end(), index,
        [](const auto& e, std::uint16_t i) { return e.first < i; });
    if (it == map.end() || it->first != index) return nullptr;
    return &it->second;
  }
  static util::Bitmap512& line_for_add(MissingMap& map, std::uint16_t index) {
    if (auto* bm = find_line(map, index)) return *bm;
    const auto it = std::lower_bound(
        map.begin(), map.end(), index,
        [](const auto& e, std::uint16_t i) { return e.first < i; });
    return map.insert(it, {index, {}})->second;
  }

  std::uint32_t n_;
  MissingMap rows_;
  MissingMap cols_;
  std::unordered_map<std::uint32_t, std::uint32_t> coverage_;
  std::uint64_t outstanding_ = 0;
};

/// Checks every query FetchSet answers against a brute-force recomputation
/// from the oracle.
void expect_same_state(const FetchSet& fs, OldFetchState& old, std::uint32_t n,
                       const std::vector<AssignedLines>& nodes,
                       util::Xoshiro256& rng) {
  ASSERT_EQ(fs.size(), old.outstanding());
  for (std::uint16_t i = 0; i < n; ++i) {
    for (const auto line : {net::LineRef::row(i), net::LineRef::col(i)}) {
      ASSERT_EQ(fs.line_count(line), old.line_count(line));
      ASSERT_EQ(fs.line(line) != nullptr, old.has_line(line));
    }
  }
  ASSERT_EQ(fs.rows(), old.line_order(net::LineRef::Kind::kRow));
  ASSERT_EQ(fs.cols(), old.line_order(net::LineRef::Kind::kCol));
  // Redundancy targets start at 1 (ProtocolParams::redundancy_for_round).
  std::vector<std::uint32_t> per_line;
  for (std::uint32_t k = 1; k <= 12; ++k) {
    ASSERT_EQ(fs.under(k, per_line), old.under(k)) << k;
  }
  for (const auto& [packed, count] : old.coverage_map()) {
    ASSERT_EQ(fs.coverage(net::CellId::unpack(packed)), count);
  }
  for (int i = 0; i < 64; ++i) {
    const net::CellId cell{static_cast<std::uint16_t>(rng.uniform(n)),
                           static_cast<std::uint16_t>(rng.uniform(n))};
    ASSERT_EQ(fs.coverage(cell), old.coverage(cell));
    ASSERT_EQ(fs.contains(cell), old.contains(cell));
  }
  for (const auto& lines : nodes) {
    ASSERT_EQ(fs.interest_count(lines), old.interest_count(lines));
    for (const std::uint32_t k : {1u, 2u, 6u}) {
      (void)fs.under(k, per_line);
      ASSERT_EQ(fs.sum_over(lines, per_line), old.under_in_lines(lines, k));
    }
    std::vector<net::CellId> got;
    fs.interest(lines, got);
    ASSERT_EQ(got, old.interest(lines));
  }
}

TEST(FetchSet, MatchesOldStructuresOnRandomOps) {
  // n = 130 spans three bitmap words with a ragged last one. Cells cluster
  // on a few hot lines so rows and columns of F cross often.
  constexpr std::uint32_t kN = 130;
  util::Xoshiro256 rng(2024);
  auto line_index = [&] {
    return static_cast<std::uint16_t>(rng.uniform(4) == 0 ? rng.uniform(kN)
                                                          : rng.uniform(12) * 11);
  };
  auto random_cell = [&] { return net::CellId{line_index(), line_index()}; };
  std::vector<AssignedLines> nodes(24);
  for (auto& lines : nodes) {
    for (std::uint32_t i = 0, m = 1 + rng.uniform(4); i < m; ++i) {
      lines.rows.push_back(line_index());
      lines.cols.push_back(line_index());
    }
    for (auto* v : {&lines.rows, &lines.cols}) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    }
  }

  for (int trial = 0; trial < 8; ++trial) {
    FetchSet fs(kN);
    OldFetchState old(kN);
    std::vector<net::CellId> in_f;  // F, for picking cells the ops touch
    auto refresh = [&] {
      std::erase_if(in_f, [&](net::CellId c) { return !old.contains(c); });
    };
    for (int step = 0; step < 300; ++step) {
      switch (rng.uniform(6)) {
        case 0: {  // add_needed (initial fetch set and top-ups)
          for (std::uint32_t i = 0, m = 1 + rng.uniform(40); i < m; ++i) {
            const auto cell = random_cell();
            const bool was_in = old.contains(cell);
            old.add(cell);
            ASSERT_EQ(fs.add(cell), !was_in);
            if (!was_in) in_f.push_back(cell);
          }
          break;
        }
        case 1: {  // on_cells_obtained: cells of F and strays alike
          for (std::uint32_t i = 0, m = 1 + rng.uniform(20); i < m; ++i) {
            const auto cell = !in_f.empty() && rng.uniform(3) != 0
                                  ? in_f[rng.uniform(in_f.size())]
                                  : random_cell();
            const bool was_in = old.contains(cell);
            old.remove(cell);
            ASSERT_EQ(fs.remove(cell), was_in);
          }
          refresh();
          break;
        }
        case 2: {  // planned queries of a round at redundancy k
          const auto k = static_cast<std::uint32_t>(1 + rng.uniform(6));
          std::vector<std::uint32_t> line_under;
          (void)fs.under(k, line_under);
          for (std::uint32_t i = 0, m = rng.uniform(30); i < m && !in_f.empty(); ++i) {
            const auto cell = in_f[rng.uniform(in_f.size())];
            old.cover(cell);
            const std::uint32_t c = fs.cover(cell);
            ASSERT_EQ(c, old.coverage(cell));
            if (c == k) fs.count_covered(cell, line_under);
          }
          for (const auto& lines : nodes) {
            ASSERT_EQ(fs.sum_over(lines, line_under), old.under_in_lines(lines, k));
          }
          break;
        }
        case 3: {  // hedges and redraws: more queries on cells of F
          for (std::uint32_t i = 0, m = rng.uniform(30); i < m && !in_f.empty(); ++i) {
            const auto cell = in_f[rng.uniform(in_f.size())];
            old.cover(cell);
            ASSERT_EQ(fs.cover(cell), old.coverage(cell));
          }
          break;
        }
        case 4: {  // corrupt reply: release the forged cells' coverage
          for (std::uint32_t i = 0, m = rng.uniform(10); i < m && !in_f.empty(); ++i) {
            const auto cell = in_f[rng.uniform(in_f.size())];
            old.uncover(cell);
            fs.uncover(cell);
          }
          break;
        }
        case 5:  // fresh fetch cycle (rarely)
          if (rng.uniform(4) == 0) {
            old.reset_coverage();
            fs.reset_coverage();
          }
          break;
      }
      expect_same_state(fs, old, kN, nodes, rng);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(FetchSet, RejectsCellsOutsideTheMatrix) {
  FetchSet fs(8);
  EXPECT_THROW(fs.add({8, 0}), std::out_of_range);
  EXPECT_THROW(fs.add({0, 8}), std::out_of_range);
  EXPECT_EQ(fs.size(), 0u);
}

// ------------------------------------------------------------ CellTable

std::uint32_t value_of(const CellTable& t, std::uint32_t key) {
  const std::uint32_t* v = t.find(key);
  return v == nullptr ? 0 : *v;
}

TEST(CellTable, EraseShiftsBackAcrossTheWrapPoint) {
  CellTable t;
  constexpr std::uint32_t kSizer = 0xfffe0000u;
  t.insert(kSizer, 0);  // sizes the table (16 slots); erased below
  const std::size_t cap = t.capacity();
  ASSERT_EQ(cap, 16u);
  // Three keys homed on the last slot wrap around to slots 0 and 1; a key
  // homed on slot 0 is pushed to slot 2 behind them.
  std::vector<std::uint32_t> last;
  std::uint32_t first = CellTable::kEmptyKey;
  for (std::uint32_t key = 0; last.size() < 3 || first == CellTable::kEmptyKey;
       ++key) {
    const std::size_t home = t.home_slot(key);
    if (home == cap - 1 && last.size() < 3) last.push_back(key);
    if (home == 0 && first == CellTable::kEmptyKey) first = key;
  }
  ASSERT_TRUE(t.erase(kSizer));
  for (std::uint32_t i = 0; i < 3; ++i) t.insert(last[i], 10 + i);
  t.insert(first, 7);
  ASSERT_EQ(t.size(), 4u);

  // Erasing the head of the wrapped run pulls every follower back one slot,
  // including the slot-0 key that had been displaced past the wrap.
  EXPECT_TRUE(t.erase(last[0]));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.find(last[0]), nullptr);
  EXPECT_EQ(value_of(t, last[1]), 11u);
  EXPECT_EQ(value_of(t, last[2]), 12u);
  EXPECT_EQ(value_of(t, first), 7u);
  // Erasing the middle of the run, then its tail, keeps the rest reachable.
  EXPECT_TRUE(t.erase(last[2]));
  EXPECT_EQ(value_of(t, last[1]), 11u);
  EXPECT_EQ(value_of(t, first), 7u);
  EXPECT_TRUE(t.erase(last[1]));
  EXPECT_EQ(value_of(t, first), 7u);
  EXPECT_FALSE(t.erase(last[1]));  // absent keys are left alone
  EXPECT_EQ(t.insert(first, 99), 7u);  // insert keeps a present value
  EXPECT_EQ(t.size(), 1u);
}

TEST(CellTable, GrowsAndClearsAgainstAReferenceMap) {
  CellTable t;
  std::unordered_map<std::uint32_t, std::uint32_t> ref;
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 20000; ++i) {
    const auto key =
        net::CellId{static_cast<std::uint16_t>(rng.uniform(40)),
                    static_cast<std::uint16_t>(rng.uniform(512))}
            .packed();
    switch (rng.uniform(3)) {
      case 0:
      case 1:
        ++t.insert(key, 0);
        ++ref[key];
        break;
      case 2:
        ASSERT_EQ(t.erase(key), ref.erase(key) == 1);
        break;
    }
    ASSERT_EQ(t.size(), ref.size());
    ASSERT_LE(8 * t.size(), 7 * t.capacity());
  }
  ASSERT_GT(t.capacity(), 1024u);  // grew well past its first 16 slots
  ASSERT_EQ(t.capacity() & (t.capacity() - 1), 0u);
  for (const auto& [key, count] : ref) ASSERT_EQ(value_of(t, key), count);
  for (std::uint32_t key = 0; key < 5000; ++key) {
    ASSERT_EQ(value_of(t, key), ref.count(key) != 0 ? ref[key] : 0u);
  }

  const std::size_t cap = t.capacity();
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.capacity(), cap);  // clear keeps the storage
  for (const auto& [key, count] : ref) ASSERT_EQ(t.find(key), nullptr);
  EXPECT_EQ(t.insert(ref.begin()->first, 3), 3u);
  EXPECT_EQ(t.size(), 1u);
}

}  // namespace
}  // namespace pandas::core
