#include "core/fetcher.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/reputation.h"
#include "core/rtt.h"

namespace pandas::core {

// ------------------------------------------------------------------ FetchSet

FetchSet::FetchSet(std::uint32_t matrix_n)
    : n_(matrix_n), slot_of_(2 * static_cast<std::size_t>(matrix_n), kNoSlot) {}

FetchSet::Line& FetchSet::line_for_add(net::LineRef line) {
  std::uint16_t& s = slot_of_[index_of(line)];
  if (s == kNoSlot) {
    s = static_cast<std::uint16_t>(lines_.size());
    lines_.emplace_back();
    auto& list = line.kind == net::LineRef::Kind::kRow ? rows_ : cols_;
    list.insert(std::lower_bound(list.begin(), list.end(), line.index),
                line.index);
  }
  return lines_[s];
}

bool FetchSet::add(net::CellId cell) {
  if (cell.row >= n_ || cell.col >= n_) {
    throw std::out_of_range("FetchSet::add: cell outside the matrix");
  }
  Line& row = line_for_add(net::LineRef::row(cell.row));
  if (row.missing.test(cell.col)) return false;
  row.missing.set(cell.col);
  ++row.count;
  Line& col = line_for_add(net::LineRef::col(cell.col));
  col.missing.set(cell.row);
  ++col.count;
  ++size_;
  return true;
}

bool FetchSet::remove(net::CellId cell) noexcept {
  if (!contains(cell)) return false;
  Line& row = lines_[slot(net::LineRef::row(cell.row))];
  row.missing.reset(cell.col);
  --row.count;
  Line& col = lines_[slot(net::LineRef::col(cell.col))];
  col.missing.reset(cell.row);
  --col.count;
  --size_;
  coverage_.erase(cell.packed());
  return true;
}

std::uint32_t FetchSet::interest_count(const AssignedLines& lines) const {
  std::uint32_t total = 0;
  for (const auto r : lines.rows) total += line_count(net::LineRef::row(r));
  for (const auto c : lines.cols) total += line_count(net::LineRef::col(c));
  return total;
}

std::uint64_t FetchSet::under(std::uint32_t k,
                              std::vector<std::uint32_t>& per_line) const {
  per_line.resize(lines_.size());
  for (std::size_t s = 0; s < lines_.size(); ++s) per_line[s] = lines_[s].count;
  // Only cells with a planned query can be at or over k, and those are all
  // in the coverage table.
  std::uint64_t over = 0;
  coverage_.for_each([&](std::uint32_t key, std::uint32_t c) {
    if (c < k) return;
    ++over;
    count_covered(net::CellId::unpack(key), per_line);
  });
  return size_ - over;
}

std::uint32_t FetchSet::sum_over(const AssignedLines& lines,
                                 const std::vector<std::uint32_t>& per_line) const {
  std::uint32_t total = 0;
  auto add = [&](net::LineRef line) {
    if (const std::uint16_t s = slot(line); s != kNoSlot) total += per_line[s];
  };
  for (const auto r : lines.rows) add(net::LineRef::row(r));
  for (const auto c : lines.cols) add(net::LineRef::col(c));
  return total;
}

void FetchSet::count_covered(net::CellId cell,
                             std::vector<std::uint32_t>& per_line) const {
  --per_line[slot(net::LineRef::row(cell.row))];
  --per_line[slot(net::LineRef::col(cell.col))];
}

void FetchSet::interest(const AssignedLines& lines,
                        std::vector<net::CellId>& out) const {
  // Walk rows in ascending order: the node's own rows in F, whose bitmaps
  // already hold every missing cell of the row (crossings with its columns
  // included), and every other row where one of its columns has a missing
  // cell. The output comes out sorted and duplicate-free.
  util::Bitmap512 own_rows;
  for (const auto r : lines.rows) {
    if (line(net::LineRef::row(r)) != nullptr) own_rows.set(r);
  }
  util::Bitmap512 rows = own_rows;
  std::vector<std::pair<std::uint16_t, const util::Bitmap512*>> cols;
  for (const auto c : lines.cols) {
    const Line* st = line(net::LineRef::col(c));
    if (st == nullptr || st->count == 0) continue;
    cols.emplace_back(c, &st->missing);
    rows |= st->missing;
  }
  const auto& row_words = rows.words();
  for (std::uint32_t w = 0; w < row_words.size(); ++w) {
    for (std::uint64_t rw = row_words[w]; rw != 0; rw &= rw - 1) {
      const auto r = static_cast<std::uint16_t>(
          (w << 6) + static_cast<std::uint32_t>(std::countr_zero(rw)));
      if (!own_rows.test(r)) {
        for (const auto& [c, missing] : cols) {
          if (missing->test(r)) out.push_back({r, c});
        }
        continue;
      }
      const auto& col_words = line(net::LineRef::row(r))->missing.words();
      for (std::uint32_t v = 0; v < col_words.size(); ++v) {
        for (std::uint64_t cw = col_words[v]; cw != 0; cw &= cw - 1) {
          out.push_back({r, static_cast<std::uint16_t>(
                                (v << 6) + static_cast<std::uint32_t>(
                                               std::countr_zero(cw)))});
        }
      }
    }
  }
}

std::uint32_t FetchSet::cover(net::CellId cell) {
  return ++coverage_.insert(cell.packed(), 0);
}

void FetchSet::uncover(net::CellId cell) noexcept {
  std::uint32_t* c = coverage_.find(cell.packed());
  if (c != nullptr && *c > 0) --*c;
}

// ----------------------------------------------------------- AdaptiveFetcher

namespace {

/// Score boost per boosted missing cell (§7: "overwhelming advantage").
constexpr double kCbBoost = 10'000.0;

/// Hedged duplicates per original query: after this many RTO expirations for
/// the same slow peer within a cycle, further expiry only backs off.
constexpr std::uint32_t kHedgeMaxPerQuery = 2;

/// "Already considered" marks for gather_candidates, indexed by NodeIndex: a
/// node is marked when its stamp equals the current epoch, so starting a
/// gather costs O(1). A fetcher runs on one engine shard, hence one thread,
/// at a time, so all fetchers on a thread share its array.
struct SeenMarks {
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;

  void begin(std::size_t nodes) {
    if (stamp.size() < nodes) stamp.resize(nodes, 0);
    if (++epoch == 0) {
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
  }
  /// Marks `n`; false if it was already marked in this gather.
  bool mark(net::NodeIndex n) {
    if (n >= stamp.size()) stamp.resize(static_cast<std::size_t>(n) + 1, 0);
    if (stamp[n] == epoch) return false;
    stamp[n] = epoch;
    return true;
  }
};

thread_local SeenMarks t_seen;

}  // namespace

AdaptiveFetcher::AdaptiveFetcher(sim::Engine& engine, const ProtocolParams& params,
                                 const AssignmentTable& assignment,
                                 const View* view, net::NodeIndex self,
                                 util::Xoshiro256 rng, PeerReputation* reputation)
    : engine_(engine),
      params_(params),
      assignment_(assignment),
      view_(view),
      self_(self),
      rng_(rng),
      reputation_(reputation),
      missing_(params.matrix_n) {}

void AdaptiveFetcher::add_needed(std::span<const net::CellId> cells) {
  for (const auto cell : cells) missing_.add(cell);
}

void AdaptiveFetcher::start(std::span<const net::CellId> needed,
                            net::BoostMap boost, SendQueryFn send) {
  if (started_) return;
  started_ = true;
  fetch_deadline_ = engine_.now() + sim::kAttestationDeadline;
  send_ = std::move(send);
  boost_ = std::move(boost);
  add_needed(needed);
  initial_outstanding_ = missing_.size();
  if (missing_.size() == 0) return;
  rounds_active_ = true;
  run_round();
}

void AdaptiveFetcher::on_cells_obtained(std::span<const net::CellId> cells) {
  for (const auto cell : cells) missing_.remove(cell);
}

FetchRoundStats& AdaptiveFetcher::stats_for_round(std::uint32_t round) {
  if (stats_.size() < round) stats_.resize(round);
  return stats_[round - 1];
}

void AdaptiveFetcher::on_reply(net::NodeIndex from, std::uint32_t new_cells,
                               std::uint32_t duplicates,
                               std::uint32_t reconstructed, bool buffered) {
  const auto it = query_round_.find(from);
  if (it == query_round_.end()) return;  // unsolicited
  // RTT sample for the estimator — first reply to a non-retransmitted query
  // only (Karn's rule), and never from the buffered-reply path (that
  // measures the peer's consolidation wait, not the network).
  if (rtt_ != nullptr && !buffered && replied_.count(from) == 0 &&
      retransmitted_.count(from) == 0) {
    const auto sit = query_sent_at_.find(from);
    if (sit != query_sent_at_.end()) {
      rtt_->sample(from, engine_.now() - sit->second);
    }
  }
  // A reply from a hedge target that beats the slow peer is a hedge win.
  const auto hit = hedge_of_.find(from);
  if (hit != hedge_of_.end()) {
    if (new_cells > 0 && replied_.count(hit->second) == 0) {
      ++hedge_wins_;
      obs::emit(trace_, obs::EventType::kHedgeWin, engine_.now(), from,
                new_cells, hit->second);
    }
    hedge_of_.erase(hit);
  }
  replied_.insert(from);
  if (reputation_ != nullptr && new_cells > 0) reputation_->record_success(from);
  const std::uint32_t round = it->second;
  auto& st = stats_for_round(round);
  const bool in_round = round <= round_deadline_.size() &&
                        engine_.now() <= round_deadline_[round - 1];
  if (in_round) {
    st.replies_in_round += 1;
    st.cells_in_round += new_cells;
  } else {
    st.replies_after_round += 1;
    st.cells_after_round += new_cells;
    // The silence was already charged as a timeout at the round deadline;
    // the late reply proves the peer alive, so the charge is refunded.
    if (reputation_ != nullptr) reputation_->redeem_timeout(from);
  }
  st.duplicates += duplicates;
  st.reconstructed += reconstructed;
}

void AdaptiveFetcher::on_corrupt_reply(net::NodeIndex from,
                                       std::span<const net::CellId> cells) {
  if (!started_ || query_round_.count(from) == 0) return;
  replied_.insert(from);  // it did reply; the corrupt penalty is separate
  std::vector<net::CellId> need;
  for (const auto cell : cells) {
    if (!is_outstanding(cell)) continue;
    // Release the coverage the forged reply was credited with.
    missing_.uncover(cell);
    need.push_back(cell);
  }
  if (need.empty() || !rounds_active_ || round_ == 0) return;

  // Immediate redraw: one replacement query per forged cell, planned over
  // the clean candidates only (the forger is already in query_round_ and the
  // reputation hit has demoted any accomplices).
  auto candidates = ranked_candidates(1);
  auto& st = stats_for_round(round_);
  for (auto& cand : candidates) {
    if (need.empty()) break;
    if (cand.interest.empty()) materialize_interest(cand);
    std::vector<net::CellId> query_cells;
    for (const auto cell : cand.interest) {
      const auto hit = std::find(need.begin(), need.end(), cell);
      if (hit == need.end()) continue;
      need.erase(hit);
      query_cells.push_back(cell);
    }
    if (query_cells.empty()) continue;
    for (const auto cell : query_cells) missing_.cover(cell);
    note_query_sent(cand.node, query_cells);
    query_round_[cand.node] = round_;
    replied_.erase(cand.node);
    st.messages_sent += 1;
    st.cells_requested += static_cast<std::uint32_t>(query_cells.size());
    if (round_ <= round_deadline_.size()) {
      arm_rto(cand.node, round_, round_deadline_[round_ - 1]);
    }
    send_(cand.node, std::move(query_cells), round_, /*redraw=*/true);
  }
}

void AdaptiveFetcher::note_query_sent(net::NodeIndex node,
                                      const std::vector<net::CellId>& cells) {
  if (rtt_ == nullptr) return;
  if (query_sent_at_.count(node) != 0 && replied_.count(node) == 0) {
    // Karn's rule: re-querying a peer whose prior query is still unanswered
    // makes the next reply ambiguous — it must never feed the estimator.
    retransmitted_.insert(node);
  } else {
    retransmitted_.erase(node);
  }
  query_sent_at_[node] = engine_.now();
  if (params_.hedging) query_cells_[node] = cells;
}

void AdaptiveFetcher::arm_rto(net::NodeIndex peer, std::uint32_t round,
                              sim::Time round_end) {
  if (!params_.hedging || rtt_ == nullptr) return;
  const sim::Time rto = rtt_->rto(peer);
  const sim::Time fire = engine_.now() + rto;
  // Hedge only when the RTO verdict lands inside the round budget (otherwise
  // the round deadline is the verdict) and the slot deadline still has room
  // for the duplicate to pay off.
  if (fire >= round_end || fire >= fetch_deadline_) return;
  engine_.schedule_in_as(sim::Engine::lane_of_actor(self_), rto,
                         [weak = weak_from_this(), peer, round]() {
                           if (const auto self = weak.lock()) {
                             self->on_rto(peer, round);
                           }
                         });
}

void AdaptiveFetcher::on_rto(net::NodeIndex peer, std::uint32_t round) {
  if (!rounds_active_ || !params_.hedging || rtt_ == nullptr) return;
  const auto it = query_round_.find(peer);
  if (it == query_round_.end() || it->second != round) return;  // stale timer
  if (replied_.count(peer) != 0) return;  // the reply beat the timer
  ++rto_expirations_;
  // Exponential backoff for this peer's future timers (Karn). Reputation is
  // deliberately NOT charged here: only the round deadline charges, once.
  rtt_->timeout(peer);
  obs::emit(trace_, obs::EventType::kRtoExpired, engine_.now(), peer, round,
            static_cast<std::int64_t>(rtt_->rto(peer)));

  auto& hedges = hedges_for_[peer];
  if (hedges >= kHedgeMaxPerQuery) return;
  if (engine_.now() >= fetch_deadline_) return;

  // Cells the slow peer was asked for that are still missing.
  std::vector<net::CellId> need;
  const auto cit = query_cells_.find(peer);
  if (cit != query_cells_.end()) {
    for (const auto cell : cit->second) {
      if (is_outstanding(cell)) need.push_back(cell);
    }
  }
  if (need.empty()) return;

  // Degradation ladder, rungs 1+2: the normal candidate machinery — boost
  // recipients are gathered first and outscore plain custodians via
  // kCbBoost, so "scored direct peers → consolidation-boost peers" falls
  // out of the existing ranking.
  auto candidates = ranked_candidates(1);
  net::NodeIndex target = net::kInvalidNode;
  std::vector<net::CellId> hedge_cells;
  for (auto& cand : candidates) {
    if (cand.interest.empty()) materialize_interest(cand);
    std::vector<net::CellId> overlap;
    for (const auto cell : cand.interest) {
      if (std::find(need.begin(), need.end(), cell) != need.end()) {
        overlap.push_back(cell);
      }
    }
    if (overlap.empty()) continue;
    target = cand.node;
    hedge_cells = std::move(overlap);
    break;
  }
  // Rung 3: last-resort custodians (e.g. DHT-discovered). Deliberately not
  // view-filtered — reaching holders outside the view is their purpose.
  if (target == net::kInvalidNode && last_resort_) {
    for (const auto n : last_resort_()) {
      if (n == self_ || query_round_.count(n) != 0) continue;
      if (reputation_ != nullptr &&
          reputation_->greylisted(n, engine_.now())) {
        continue;
      }
      target = n;
      hedge_cells = need;
      break;
    }
  }
  if (target == net::kInvalidNode) return;

  ++hedges;
  ++hedges_sent_;
  for (const auto cell : hedge_cells) missing_.cover(cell);
  auto& st = stats_for_round(round_);
  st.messages_sent += 1;
  st.cells_requested += static_cast<std::uint32_t>(hedge_cells.size());
  note_query_sent(target, hedge_cells);
  query_round_[target] = round_;
  replied_.erase(target);
  hedge_of_[target] = peer;
  obs::emit(trace_, obs::EventType::kHedgeSent, engine_.now(), target,
            static_cast<std::int64_t>(hedge_cells.size()), peer);
  if (round_ <= round_deadline_.size()) {
    arm_rto(target, round_, round_deadline_[round_ - 1]);
  }
  send_(target, std::move(hedge_cells), round_, /*redraw=*/true);
}

void AdaptiveFetcher::gather_candidates(std::uint32_t k,
                                        std::vector<net::NodeIndex>& out) {
  // Self and the peers already queried this cycle start out marked, so one
  // mark test replaces both exclusions; every node is then judged once.
  SeenMarks& seen = t_seen;
  seen.begin(assignment_.node_count());
  seen.mark(self_);
  for (const auto& [peer, round] : query_round_) seen.mark(peer);
  const std::uint32_t cap =
      params_.candidates_per_line == 0
          ? ~0u
          : std::max(params_.candidates_per_line, 3 * k);

  auto add = [&](net::NodeIndex n) {
    if (!seen.mark(n)) return;
    if (view_ != nullptr && !view_->contains(n)) return;
    if (reputation_ != nullptr && reputation_->greylisted(n, engine_.now())) {
      return;
    }
    out.push_back(n);
  };

  // Boosted candidates first: recipients of seeded cells we still miss.
  for (const auto& lb : boost_) {
    if (!lb) continue;
    const FetchSet::Line* line = missing_.line(lb->line);
    if (line == nullptr) continue;
    std::uint32_t taken = 0;
    net::NodeIndex last = net::kInvalidNode;
    for (const auto& [node, pos] : lb->entries) {
      if (node == last) continue;
      if (!line->missing.test(pos)) continue;
      last = node;
      add(node);
      if (++taken >= cap) break;
    }
  }

  // Then, per line that ever entered F (emptied ones too), a random sample
  // of assigned nodes.
  auto sample_line = [&](net::LineRef line) {
    const auto& pool = assignment_.assigned_to(line);
    if (pool.empty()) return;
    if (pool.size() <= cap) {
      for (const auto n : pool) add(n);
      return;
    }
    const auto picks =
        rng_.sample_distinct(static_cast<std::uint32_t>(pool.size()), cap);
    for (const auto i : picks) add(pool[i]);
  };
  for (const auto row : missing_.rows()) sample_line(net::LineRef::row(row));
  for (const auto col : missing_.cols()) sample_line(net::LineRef::col(col));
}

void AdaptiveFetcher::score_candidates(std::vector<net::NodeIndex>& nodes,
                                       std::vector<Candidate>& out) {
  // Scoring only needs |cells of interest| and the boosted seeded cells;
  // the interest list itself is materialized lazily at planning time for
  // the (far fewer) candidates that actually get a query.
  out.reserve(nodes.size());
  for (const auto node : nodes) {
    // (Cells sitting at the intersection of two of the candidate's own lines
    // are counted twice; the bias is negligible for ranking.)
    const std::uint32_t interest =
        missing_.interest_count(assignment_.of(node));
    if (interest == 0) continue;
    Candidate cand;
    cand.node = node;
    cand.score = static_cast<double>(interest);

    // Consolidation-boost: +kCbBoost per missing cell the builder declared
    // as seeded to this candidate (Algorithm 1, lines 7-9). The seeded cells
    // are also remembered so planning can target them precisely.
    for (const auto& lb : boost_) {
      if (!lb) continue;
      if (!assignment_.node_has_line(node, lb->line)) continue;
      const FetchSet::Line* line = missing_.line(lb->line);
      if (line == nullptr) continue;
      const auto [lo, hi] = lb->range_of(node);
      for (std::size_t i = lo; i < hi; ++i) {
        const std::uint16_t pos = lb->entries[i].second;
        if (!line->missing.test(pos)) continue;
        cand.seeded.push_back(lb->line.kind == net::LineRef::Kind::kRow
                                  ? net::CellId{lb->line.index, pos}
                                  : net::CellId{pos, lb->line.index});
      }
    }
    cand.score += kCbBoost * static_cast<double>(cand.seeded.size());
    // Reputation demotes the whole score (boost included): a boosted holder
    // that previously served garbage loses ties to clean fallback peers.
    if (reputation_ != nullptr) cand.score *= reputation_->weight(node);
    out.push_back(std::move(cand));
  }
}

std::vector<AdaptiveFetcher::Candidate> AdaptiveFetcher::ranked_candidates(
    std::uint32_t k) {
  std::vector<net::NodeIndex> pool;
  gather_candidates(k, pool);
  std::vector<Candidate> candidates;
  score_candidates(pool, candidates);
  // Ties are broken by a per-fetcher random salt rather than node index:
  // with index order every fetcher in the network would converge on the same
  // lowest-index holders and overload their uplinks.
  const std::uint64_t salt = rng_();
  for (auto& cand : candidates) cand.tie = util::mix64(cand.node ^ salt);
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.tie < b.tie;
            });
  return candidates;
}

void AdaptiveFetcher::record_round_timeouts(std::uint32_t round) {
  if (reputation_ == nullptr || round == 0) return;
  for (const auto& [peer, queried_in] : query_round_) {
    if (queried_in != round || replied_.count(peer) != 0) continue;
    if (reputation_->record_timeout(peer, engine_.now())) {
      obs::emit(trace_, obs::EventType::kPeerGreylisted, engine_.now(), peer);
    }
  }
}

void AdaptiveFetcher::run_round() {
  if (!rounds_active_) return;
  // The previous round's deadline just expired: queried peers that stayed
  // silent are charged a timeout (a late reply later redeems them).
  record_round_timeouts(round_);
  if (round_ > 0 && round_ <= stats_.size()) {
    stats_[round_ - 1].remaining_after = missing_.size();
  }
  if (topup_ && round_ > 0) {
    const auto extra = topup_();
    if (!extra.empty()) add_needed(extra);
  }
  if (missing_.size() == 0 || round_ >= params_.max_rounds) {
    rounds_active_ = false;
    return;
  }
  ++round_;
  obs::emit(trace_, obs::EventType::kRoundStart, engine_.now(), obs::kNoPeer,
            round_, static_cast<std::int64_t>(missing_.size()));
  // Schedules are relative to the current fetch cycle: a re-invocation of
  // FETCH (after candidate exhaustion) restarts with cautious parameters.
  const std::uint32_t cycle_round = round_ - cycle_start_round_;
  const std::uint32_t k = params_.redundancy_for_round(cycle_round);
  const sim::Time timeout = params_.timeout_for_round(cycle_round);
  const sim::Time round_end = engine_.now() + timeout;

  auto candidates = ranked_candidates(k);

  // Greedy planning (Algorithm 1, lines 11-17): walk candidates by
  // decreasing score; each planned query asks a candidate for its cells of
  // interest that are still under the cumulative redundancy target k
  // (c_j.cells ∩ U). A cell leaves U once k queries (across all rounds so
  // far) cover it.
  // Per line too: a candidate none of whose lines holds a cell under k has
  // nothing to be asked, so its interest list is never built.
  std::vector<std::uint32_t> line_under;
  std::uint64_t under = missing_.under(k, line_under);
  auto& st = stats_for_round(round_);

  for (auto& cand : candidates) {
    if (under == 0) break;
    // Prefer the cells the boost map says this candidate was seeded (it can
    // serve them without waiting for its own consolidation); fall back to
    // its full set of cells of interest otherwise.
    std::vector<net::CellId> query_cells;
    for (const auto cell : cand.seeded) {
      if (missing_.coverage(cell) < k) query_cells.push_back(cell);
    }
    if (query_cells.empty()) {
      if (missing_.sum_over(assignment_.of(cand.node), line_under) == 0) continue;
      if (cand.interest.empty()) materialize_interest(cand);
      for (const auto cell : cand.interest) {
        if (missing_.coverage(cell) < k) query_cells.push_back(cell);
      }
    }
    if (query_cells.empty()) continue;
    for (const auto cell : query_cells) {
      if (missing_.cover(cell) == k) {
        --under;
        missing_.count_covered(cell, line_under);
      }
    }
    note_query_sent(cand.node, query_cells);
    query_round_[cand.node] = round_;
    replied_.erase(cand.node);  // a fresh query must be answered anew
    st.messages_sent += 1;
    st.cells_requested += static_cast<std::uint32_t>(query_cells.size());
    arm_rto(cand.node, round_, round_end);
    send_(cand.node, std::move(query_cells), round_, /*redraw=*/false);
  }

  // Candidate pool exhausted while cells are still missing: begin a fresh
  // FETCH cycle (Algorithm 1 is re-invoked with C = V; the paper notes that
  // lagging nodes run multiple fetch cycles per slot). Cumulative coverage
  // restarts with the cycle.
  sim::Time next_round_in = timeout;
  if (st.messages_sent == 0 && missing_.size() > 0 && !query_round_.empty()) {
    query_round_.clear();
    missing_.reset_coverage();
    hedges_for_.clear();  // a fresh cycle earns a fresh hedge budget
    cycle_start_round_ = round_;
    // Back off before the re-invocation: peers need time to consolidate
    // before re-querying them is useful.
    next_round_in = params_.first_round_timeout;
  }

  round_deadline_.push_back(round_end);
  engine_.schedule_in_as(sim::Engine::lane_of_actor(self_), next_round_in, [weak = weak_from_this()]() {
    if (const auto self = weak.lock()) self->run_round();
  });
}

}  // namespace pandas::core
