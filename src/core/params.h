#pragma once

#include <cstdint>
#include <vector>

#include "core/rtt.h"
#include "sim/time.h"

/// Protocol parameters for PANDAS, defaulting to the Danksharding targets
/// the paper evaluates (§3, §5, §7).
namespace pandas::core {

/// Cap of the per-cell query redundancy k_i (redundancy_for_round()).
inline constexpr std::uint32_t kMaxRedundancy = 10;

struct ProtocolParams {
  /// Extended blob geometry: n x n cells, any k of a line reconstruct it.
  std::uint32_t matrix_k = 256;
  std::uint32_t matrix_n = 512;

  /// Custody assignment: distinct rows/columns per node (§5; default 8+8,
  /// i.e. 8176 cells ~ 4.4 MB per node per slot).
  std::uint32_t rows_per_node = 8;
  std::uint32_t cols_per_node = 8;

  /// Random cells sampled per node per slot (§3: s=73 gives a false-positive
  /// bound below 1e-9).
  std::uint32_t samples_per_node = 73;

  /// Adaptive fetching schedule (§7): round i uses timeout t_i and per-cell
  /// query redundancy k_i. Defaults: t = 400, 200, then 100 ms, as the
  /// normative text has it; k_i as redundancy_for_round() explains.
  sim::Time first_round_timeout = 400 * sim::kMillisecond;
  sim::Time min_round_timeout = 100 * sim::kMillisecond;
  /// Bounds the total effort of a slot, including FETCH re-invocations
  /// after candidate exhaustion (each cycle may query every peer once).
  /// Re-invocations start after a fresh first_round_timeout pause with
  /// cycle-relative schedules. Sparse seeding policies need several cycles:
  /// cells of a "later wave" only exist once earlier waves reconstruct.
  std::uint32_t max_rounds = 50;

  /// Consolidation fallback timer: if a node is asked about a slot for which
  /// it has not yet received seed cells, it starts fetching after this delay
  /// (§6.2).
  sim::Time consolidation_fallback = 400 * sim::kMillisecond;

  /// Performance cap: candidate nodes examined per line of interest when
  /// scoring (0 = score the entire view, as the paper's pseudocode does;
  /// the default keeps large-N simulations tractable without changing
  /// behaviour — only nodes beyond k_i-fold coverage are skipped).
  std::uint32_t candidates_per_line = 32;

  /// Constant-strategy override used by the Fig 11 ablation: fixed timeout
  /// and redundancy for every round when set.
  bool adaptive = true;

  /// ---- Deadline-aware hedging (off = the paper's §7 schedule exactly) ----

  /// When true, every fetch query also arms a per-peer RTO timer (Jacobson/
  /// Karels estimator, src/core/rtt.h, seeded from a topology prior). An RTO
  /// expiring inside the round budget sends a hedged duplicate query for the
  /// still-missing cells to the next-best candidate instead of waiting out
  /// the round; the silent peer is NOT charged reputation at RTO expiry (the
  /// round deadline still does that, and a late reply still redeems it). Off
  /// by default so Fig 11 / Table 1 runs are byte-identical to the fixed
  /// schedule.
  bool hedging = false;

  /// ---- Defensive hardening (§4.1's Byzantine peers) ----

  /// Verify the simulated KZG proof tag of every received cell; cells with
  /// missing or mismatching tags are rejected (counted, never enter
  /// custody). Disabling admits corrupt cells (they are still counted, as
  /// cells_corrupt_accepted) — useful only to measure the attack's impact.
  bool verify_cells = true;

  /// Track per-peer reputation in the fetcher: corrupt replies and
  /// round-timeout silences demote a peer's candidate score; repeat
  /// offenders are greylisted (skipped entirely) for a while
  /// (core/reputation.h).
  bool reputation = true;

  [[nodiscard]] sim::Time timeout_for_round(std::uint32_t round) const noexcept {
    if (!adaptive) return first_round_timeout;
    sim::Time t = first_round_timeout;
    for (std::uint32_t i = 1; i < round; ++i) t /= 2;
    return t < min_round_timeout ? min_round_timeout : t;
  }

  /// Cumulative redundancy target after round i: a cell should have been
  /// queried from k_i distinct nodes in total by the end of round i, so each
  /// round adds k_i - k_{i-1} fresh queries per still-missing cell.
  ///
  /// k_i = min(i, kMaxRedundancy), per Fig 8 (k3=3, k4=4) — the schedule
  /// consistent with Table 1's per-round request counts (§7's prose sketches
  /// a steeper +2-per-round variant).
  [[nodiscard]] std::uint32_t redundancy_for_round(std::uint32_t round) const noexcept {
    if (!adaptive) return 1;
    return round > kMaxRedundancy ? kMaxRedundancy : round;
  }

  [[nodiscard]] std::uint32_t lines_total() const noexcept {
    return 2 * matrix_n;
  }
  [[nodiscard]] std::uint32_t cells_per_node() const noexcept {
    // Distinct custodied cells: full rows + full columns minus the
    // row/column intersections counted twice (~8,176 cells / 4.4 MB for the
    // defaults, paper §5).
    return rows_per_node * matrix_n + cols_per_node * matrix_n -
           rows_per_node * cols_per_node;
  }
};

}  // namespace pandas::core
