#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/assignment.h"
#include "core/cell_table.h"
#include "core/params.h"
#include "core/view.h"
#include "net/messages.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "util/bitmap.h"
#include "util/prng.h"

/// Adaptive fetching (paper §7, Algorithm 1).
///
/// One fetcher instance drives BOTH consolidation and sampling for a slot:
/// the input cell set F is the union of the node's missing assigned cells
/// and its 73 random samples. Fetching proceeds in rounds; round i uses
/// timeout t_i (400, 200, then 100 ms) and per-cell redundancy k_i (1, 2, 4,
/// 6, 8, then 10): cautious while the slot is young, aggressive as the 4 s
/// deadline nears.
///
/// Each round: (1) SCORE candidate peers by how many cells of interest they
/// are assigned, with an overwhelming bonus (kCbBoost) per missing cell the
/// builder's consolidation-boost map says was seeded to them; (2) PLAN
/// greedily, highest score first, until every missing cell is covered by
/// k_i planned queries or candidates run out; (3) EXECUTE the queries
/// asynchronously and sleep t_i. A peer is queried at most once per slot.
///
/// With a PeerReputation attached, the greedy scoring also folds in peer
/// history: scores are multiplied by the peer's reputation weight, greylisted
/// peers are skipped outright, and a queried peer that stays silent past its
/// round deadline is reported as a timeout (late replies then redeem it).
///
/// With `params.hedging` on (off by default — the paper's schedule exactly),
/// every query also arms a per-peer RTO timer from the shared estimator
/// (core/rtt.h). An RTO expiring inside the round budget sends a hedged
/// duplicate query for the peer's still-missing cells to the next-best
/// candidate, walking a degradation ladder: scored direct peers →
/// consolidation-boost recipients (both via the normal candidate machinery,
/// which ranks boost holders first) → a last-resort provider hook
/// (DHT-discovered custodians). Hedges are capped by the remaining slot
/// deadline and by kHedgeMaxPerQuery, back off exponentially (Karn), and
/// never double-charge reputation: the RTO expiry itself charges nothing —
/// only the round deadline does, once, and a late reply redeems it once.
namespace pandas::core {

class PeerReputation;
class PeerRtt;

/// The fetch set F as the fetcher's planning reads it, kept incrementally so
/// that no query scans F:
///  - F per line, two ways (each row's missing columns, each column's
///    missing rows), found through a flat line -> slot index, with each
///    line's missing count kept alongside its bitmap;
///  - the lines that ever entered F, ascending, rows then columns — a line
///    whose cells all left F stays listed (candidate gathering samples it);
///  - per-cell coverage (queries planned so far this cycle) of the cells of
///    F that have any, so the cells below a redundancy target are tallied
///    from the lines' counts and the covered cells alone.
/// Every cell must lie inside the n x n matrix given at construction.
class FetchSet {
 public:
  explicit FetchSet(std::uint32_t matrix_n);

  /// Adds a cell to F at coverage 0; false if it was already in F.
  bool add(net::CellId cell);
  /// Removes a cell from F, dropping its coverage; false if it was not in F.
  bool remove(net::CellId cell) noexcept;
  [[nodiscard]] bool contains(net::CellId cell) const noexcept {
    const Line* row = line(net::LineRef::row(cell.row));
    return row != nullptr && row->missing.test(cell.col);
  }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  struct Line {
    /// Positions of this line's cells currently in F.
    util::Bitmap512 missing;
    std::uint32_t count = 0;  ///< missing.count()
  };
  /// The line's state, or nullptr if no cell of it ever entered F.
  [[nodiscard]] const Line* line(net::LineRef line) const noexcept {
    const std::uint16_t s = slot(line);
    return s == kNoSlot ? nullptr : &lines_[s];
  }
  /// Cells of `line` currently in F.
  [[nodiscard]] std::uint32_t line_count(net::LineRef l) const noexcept {
    const Line* st = line(l);
    return st == nullptr ? 0 : st->count;
  }
  /// Indices of the rows / columns that ever entered F, ascending.
  [[nodiscard]] const std::vector<std::uint16_t>& rows() const noexcept {
    return rows_;
  }
  [[nodiscard]] const std::vector<std::uint16_t>& cols() const noexcept {
    return cols_;
  }

  /// Cells of F on a node's assigned lines, summed line by line: a cell at
  /// the intersection of one of its rows and one of its columns counts twice.
  [[nodiscard]] std::uint32_t interest_count(const AssignedLines& lines) const;
  /// Cells of F covered by fewer than `k` planned queries; `per_line`
  /// receives the same count per line, indexed by slot. O(lines + covered
  /// cells).
  std::uint64_t under(std::uint32_t k, std::vector<std::uint32_t>& per_line) const;
  /// `per_line` (from under) summed over a node's assigned lines.
  [[nodiscard]] std::uint32_t sum_over(
      const AssignedLines& lines, const std::vector<std::uint32_t>& per_line) const;
  /// Takes a cell that just reached the target out of `per_line`.
  void count_covered(net::CellId cell, std::vector<std::uint32_t>& per_line) const;
  /// Appends the distinct cells of F on a node's assigned lines to `out`, in
  /// ascending (row, col) order.
  void interest(const AssignedLines& lines, std::vector<net::CellId>& out) const;

  /// Queries planned so far this cycle that cover `cell`.
  [[nodiscard]] std::uint32_t coverage(net::CellId cell) const noexcept {
    const std::uint32_t* c = coverage_.find(cell.packed());
    return c == nullptr ? 0 : *c;
  }
  /// Credits one more planned query to a cell of F; returns its coverage.
  std::uint32_t cover(net::CellId cell);
  /// Withdraws one planned query from a cell of F (no-op at coverage 0).
  void uncover(net::CellId cell) noexcept;
  /// Resets every cell of F to coverage 0 (a fresh fetch cycle).
  void reset_coverage() noexcept { coverage_.clear(); }

 private:
  static constexpr std::uint16_t kNoSlot = 0xffff;
  [[nodiscard]] std::size_t index_of(net::LineRef line) const noexcept {
    return (line.kind == net::LineRef::Kind::kRow ? 0 : n_) + line.index;
  }
  /// The line's index into lines_, or kNoSlot.
  [[nodiscard]] std::uint16_t slot(net::LineRef line) const noexcept {
    return line.index < n_ ? slot_of_[index_of(line)] : kNoSlot;
  }
  Line& line_for_add(net::LineRef line);

  std::uint32_t n_;
  /// Line -> slot in lines_: rows 0..n-1, then columns 0..n-1.
  std::vector<std::uint16_t> slot_of_;
  std::vector<Line> lines_;
  std::vector<std::uint16_t> rows_;
  std::vector<std::uint16_t> cols_;
  std::uint64_t size_ = 0;
  CellTable coverage_;  ///< cells of F with a planned query (may read 0)
};

/// Per-round telemetry matching the rows of the paper's Table 1.
struct FetchRoundStats {
  std::uint32_t messages_sent = 0;
  std::uint32_t cells_requested = 0;
  std::uint32_t replies_in_round = 0;
  std::uint32_t replies_after_round = 0;
  std::uint32_t cells_in_round = 0;
  std::uint32_t cells_after_round = 0;
  std::uint32_t duplicates = 0;
  std::uint32_t reconstructed = 0;
  /// Cells still missing when the round's timeout expired.
  std::uint64_t remaining_after = 0;
};

/// Hold AdaptiveFetcher in a std::shared_ptr: its round timers keep weak
/// references, so a fetcher abandoned at a slot boundary simply stops.
class AdaptiveFetcher : public std::enable_shared_from_this<AdaptiveFetcher> {
 public:
  /// `round` is the 1-based fetch round issuing the query; `redraw` marks
  /// immediate replacement queries after a corrupt reply. Both feed the
  /// query's causal metadata (obs/causal.h) so deadline attribution can
  /// distinguish round-timeout waits from corrupt-redraw waits.
  using SendQueryFn =
      std::function<void(net::NodeIndex target, std::vector<net::CellId> cells,
                         std::uint32_t round, bool redraw)>;

  /// `reputation` (optional, may outlive slots) enables history-aware
  /// candidate scoring; nullptr preserves the paper's memoryless scoring.
  AdaptiveFetcher(sim::Engine& engine, const ProtocolParams& params,
                  const AssignmentTable& assignment, const View* view,
                  net::NodeIndex self, util::Xoshiro256 rng,
                  PeerReputation* reputation = nullptr);

  /// Begins fetching the given cells. `boost` is the builder's CB map for
  /// this node's lines (may be empty). Idempotent per slot: only the first
  /// call starts rounds.
  void start(std::span<const net::CellId> needed, net::BoostMap boost,
             SendQueryFn send);

  /// Notifies the fetcher that cells became held locally (seed receipt,
  /// query replies, or erasure reconstruction) — they leave F.
  void on_cells_obtained(std::span<const net::CellId> cells);

  /// Installs a consolidation-boost map after start() — used when the seed
  /// message arrives late (after the fallback timer already launched the
  /// fetch); subsequent rounds then benefit from it.
  void update_boost(net::BoostMap boost) {
    if (boost_.empty() && !boost.empty()) boost_ = std::move(boost);
  }

  /// Adds further cells to F mid-fetch (the owner tops up a line whose
  /// outstanding requests no longer cover its reconstruction deficit — e.g.
  /// when the initially chosen cells turn out not to exist anywhere yet).
  void add_needed(std::span<const net::CellId> cells);

  /// Invoked at the start of every round; the returned cells join F.
  using TopUpFn = std::function<std::vector<net::CellId>()>;
  void set_topup(TopUpFn fn) { topup_ = std::move(fn); }

  /// Observability sink (nullptr = off); rounds emit round-start events.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  /// Shared per-peer RTO estimator (core/rtt.h), owned by the node so it
  /// outlives slots. When set, query→reply times feed it (Karn's rule:
  /// buffered replies and re-queried peers are never sampled); when
  /// `params.hedging` is also on, RTO timers arm per query. nullptr = off.
  void set_rtt(PeerRtt* rtt) { rtt_ = rtt; }

  /// Last rung of the hedging degradation ladder: extra candidate nodes
  /// (e.g. DHT-discovered custodians) consulted only when scored peers and
  /// boost recipients are exhausted.
  using LastResortFn = std::function<std::vector<net::NodeIndex>()>;
  void set_last_resort(LastResortFn fn) { last_resort_ = std::move(fn); }

  /// Number of cells of `line` currently in F.
  [[nodiscard]] std::uint32_t outstanding_in_line(net::LineRef line) const {
    return missing_.line_count(line);
  }
  /// True if the cell is currently in F.
  [[nodiscard]] bool is_outstanding(net::CellId cell) const {
    return missing_.contains(cell);
  }

  /// Attribution hook for Table 1: a reply from `from` delivered `new_cells`
  /// fresh cells, `duplicates` already-held ones, and triggered
  /// `reconstructed` recoveries. `buffered` marks replies served from the
  /// peer's buffered-query path — they measure consolidation wait, not
  /// network RTT, so they never feed the estimator.
  void on_reply(net::NodeIndex from, std::uint32_t new_cells,
                std::uint32_t duplicates, std::uint32_t reconstructed,
                bool buffered = false);

  /// A reply from `from` carried cells whose proofs failed verification.
  /// Unlike silence, a forged reply is a positive signal: the coverage those
  /// queries were credited is released and replacement queries for the
  /// still-missing cells go out immediately instead of waiting for the
  /// round deadline.
  void on_corrupt_reply(net::NodeIndex from,
                        std::span<const net::CellId> cells);

  [[nodiscard]] bool complete() const noexcept { return missing_.size() == 0; }
  [[nodiscard]] bool started() const noexcept { return started_; }
  [[nodiscard]] std::uint64_t outstanding() const noexcept {
    return missing_.size();
  }
  /// |F| when start() was called (denominator of Table 1's coverage row).
  [[nodiscard]] std::uint64_t initial_outstanding() const noexcept {
    return initial_outstanding_;
  }
  [[nodiscard]] std::uint32_t rounds_used() const noexcept { return round_; }
  [[nodiscard]] const std::vector<FetchRoundStats>& round_stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] bool was_queried(net::NodeIndex n) const {
    return query_round_.count(n) != 0;
  }
  /// Hedging counters (0 unless params.hedging).
  [[nodiscard]] std::uint32_t rto_expirations() const noexcept {
    return rto_expirations_;
  }
  [[nodiscard]] std::uint32_t hedges_sent() const noexcept {
    return hedges_sent_;
  }
  [[nodiscard]] std::uint32_t hedge_wins() const noexcept {
    return hedge_wins_;
  }

 private:
  struct Candidate {
    net::NodeIndex node = 0;
    double score = 0.0;
    /// Tie-break key, mix64(node ^ salt): distinct per node, so the ranking
    /// is a total order.
    std::uint64_t tie = 0;
    std::vector<net::CellId> interest;
    /// Subset of `interest` the consolidation-boost map declares as seeded
    /// to this node — cells it can serve immediately. Planning prefers
    /// these: asking a seeded holder for exactly its seeded cells is what
    /// makes round-1 replies immediate (Table 1).
    std::vector<net::CellId> seeded;
  };

  void run_round();
  void gather_candidates(std::uint32_t k, std::vector<net::NodeIndex>& out);
  void score_candidates(std::vector<net::NodeIndex>& nodes,
                        std::vector<Candidate>& out);
  /// Gathers, scores and ranks (score descending, salted tie-break) the
  /// candidates for redundancy `k`; draws the salt from rng_.
  [[nodiscard]] std::vector<Candidate> ranked_candidates(std::uint32_t k);
  /// Fills cand.interest (assignment ∩ F) on demand at planning time.
  void materialize_interest(Candidate& cand) const {
    missing_.interest(assignment_.of(cand.node), cand.interest);
  }
  FetchRoundStats& stats_for_round(std::uint32_t round);

  /// Charges round timeouts for peers queried in `round` that never replied.
  void record_round_timeouts(std::uint32_t round);

  /// Bookkeeping common to every outgoing query: Karn retransmit marking
  /// and the send timestamp the RTT sample derives from (rtt_ set only).
  void note_query_sent(net::NodeIndex node,
                       const std::vector<net::CellId>& cells);
  /// Arms a hedging RTO timer for `peer`, provided the RTO lands inside
  /// both the round budget (`round_end`) and the slot deadline.
  void arm_rto(net::NodeIndex peer, std::uint32_t round, sim::Time round_end);
  void on_rto(net::NodeIndex peer, std::uint32_t round);

  sim::Engine& engine_;
  const ProtocolParams& params_;
  const AssignmentTable& assignment_;
  const View* view_;
  net::NodeIndex self_;
  util::Xoshiro256 rng_;
  PeerReputation* reputation_ = nullptr;

  SendQueryFn send_;
  net::BoostMap boost_;
  TopUpFn topup_;
  obs::TraceSink* trace_ = nullptr;

  /// F with its per-line counts and per-cell coverage. Redundancy targets
  /// are cumulative: round i tops every cell up to k_i planned queries.
  FetchSet missing_;
  std::uint64_t initial_outstanding_ = 0;

  bool started_ = false;
  bool rounds_active_ = false;
  std::uint32_t round_ = 0;
  std::uint32_t cycle_start_round_ = 0;  // round at which this cycle began
  std::vector<sim::Time> round_deadline_;  // index: round-1
  std::unordered_map<net::NodeIndex, std::uint32_t> query_round_;
  /// Peers that replied to their outstanding query (re-querying in a later
  /// cycle removes them again), for round-timeout attribution.
  std::unordered_set<net::NodeIndex> replied_;
  std::vector<FetchRoundStats> stats_;

  /// ---- RTT / hedging state (inert when rtt_ == nullptr) ----
  PeerRtt* rtt_ = nullptr;
  LastResortFn last_resort_;
  sim::Time fetch_deadline_ = 0;  ///< start() time + sim::kAttestationDeadline
  /// Send time of each peer's outstanding query (RTT sample base).
  std::unordered_map<net::NodeIndex, sim::Time> query_sent_at_;
  /// Cells each peer's outstanding query asked for (hedge work list).
  std::unordered_map<net::NodeIndex, std::vector<net::CellId>> query_cells_;
  /// Karn's rule: peers re-queried while a prior query was unanswered —
  /// their next reply is ambiguous and never sampled.
  std::unordered_set<net::NodeIndex> retransmitted_;
  /// Hedge target -> the slow peer it hedges (for hedge_wins accounting).
  std::unordered_map<net::NodeIndex, net::NodeIndex> hedge_of_;
  /// Slow peer -> hedges already sent for it this cycle.
  std::unordered_map<net::NodeIndex, std::uint32_t> hedges_for_;
  std::uint32_t rto_expirations_ = 0;
  std::uint32_t hedges_sent_ = 0;
  std::uint32_t hedge_wins_ = 0;
};

}  // namespace pandas::core
