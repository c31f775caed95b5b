#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/baseline_experiments.h"
#include "harness/experiment.h"
#include "util/stats.h"

/// Structured results snapshot: the single source of truth behind every
/// console report and every machine-readable export. Benches build one
/// snapshot from their results and then either render it (report.h) or dump
/// it as JSON (`--json`), so the two can never disagree about a number.
namespace pandas::net {
class UdpTransport;
}

namespace pandas::harness {

/// One named distribution (a figure series): summary row + CDF points.
struct SeriesSnapshot {
  std::string name;   ///< e.g. "sampling_ms" (Fig 9d)
  std::string unit;   ///< "ms", "msgs", "MB", ...
  util::Summary summary{};
  std::vector<std::pair<double, double>> cdf;  ///< (value, fraction)
};

/// mean +- stddev cell of a Table-1 row.
struct TableCell {
  std::size_t n = 0;
  double mean = 0;
  double stddev = 0;
};

/// One fetch round of Table 1, aggregated over node-slots.
struct RoundRowSnapshot {
  std::uint32_t round = 0;  ///< 1-based
  TableCell messages, requested, replies_in, replies_after, cells_in,
      cells_after, duplicates, reconstructed, coverage_pct;
};

/// Per-message-class transport counters of a live (real-socket) run, summed
/// over every endpoint. Mirrors net::TypedTrafficStats::Class.
struct TransportClassSnapshot {
  std::string name;  ///< "seed", "query", "response", "gossip", "dht"
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t cells_sent = 0;
  std::uint64_t cells_received = 0;
};

/// Live-backend transport counters: traffic decomposition plus the drop /
/// failure counters that make silent loss impossible (docs/UDP.md).
struct TransportSnapshot {
  std::uint64_t endpoints = 0;
  std::uint64_t send_failures = 0;      ///< sendto() rejected by the kernel
  std::uint64_t emsgsize_failures = 0;  ///< the EMSGSIZE subset
  std::uint64_t oversize_fragments = 0; ///< encoded > 65,507 B (budget abuse)
  std::uint64_t decode_failures = 0;    ///< datagrams failing strict decode
  std::vector<TransportClassSnapshot> by_class;
};

/// Builds the transport block from a live UDP transport (all endpoints).
[[nodiscard]] TransportSnapshot transport_snapshot_of(
    const net::UdpTransport& transport);

struct ResultsSnapshot {
  std::string experiment;  ///< label, e.g. "pandas/redundant-8"
  std::uint64_t seed = 0;
  std::uint32_t nodes = 0;
  std::uint32_t slots = 0;
  std::uint64_t records = 0;
  std::uint64_t consolidation_misses = 0;
  std::uint64_t sampling_misses = 0;
  double deadline_fraction = 0;
  double builder_bytes_per_slot = 0;
  double builder_msgs_per_slot = 0;
  /// Defensive-hardening counters (docs/FAULTS.md). Zero in benign runs.
  std::uint64_t cells_corrupt_rejected = 0;
  std::uint64_t cells_corrupt_accepted = 0;
  std::uint64_t peers_greylisted = 0;
  std::uint64_t fetch_peer_timeouts = 0;
  /// Hedging / link-chaos counters (core/rtt.h, docs/FAULTS.md "Network
  /// chaos"). All zero — and omitted from the JSON dump — with hedging and
  /// chaos off, so benign exports stay byte-identical.
  std::uint64_t rto_expirations = 0;
  std::uint64_t hedges_sent = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t partition_heals = 0;

  [[nodiscard]] bool any_hedging() const noexcept {
    return rto_expirations > 0 || hedges_sent > 0 || hedge_wins > 0 ||
           partition_heals > 0;
  }
  std::vector<SeriesSnapshot> series;
  std::vector<RoundRowSnapshot> table1;

  /// Series lookup by name; an empty placeholder when absent, so renderers
  /// can print unconditional rows.
  [[nodiscard]] const SeriesSnapshot& series_named(std::string_view name) const {
    for (const auto& s : series) {
      if (s.name == name) return s;
    }
    static const SeriesSnapshot kEmpty{};
    return kEmpty;
  }

  /// Deterministic JSON dump (figure series + Table-1 rows). One top-level
  /// object; callers append a newline for JSONL-style concatenation.
  void write_json(std::FILE* out) const;
};

/// Builds a snapshot from a PANDAS run. `cdf_points` bounds the per-series
/// CDF resolution (0 = omit CDFs).
[[nodiscard]] ResultsSnapshot snapshot_of(const std::string& label,
                                          const PandasConfig& cfg,
                                          const PandasResults& res,
                                          std::size_t cdf_points = 20);

/// Builds a snapshot from a baseline (GossipDAS / DHT-DAS) run.
[[nodiscard]] ResultsSnapshot snapshot_of(const std::string& label,
                                          const NetworkConfig& net,
                                          std::uint32_t slots,
                                          const BaselineResults& res,
                                          std::size_t cdf_points = 20);

[[nodiscard]] SeriesSnapshot series_of(const std::string& name,
                                       const std::string& unit,
                                       const util::Samples& s,
                                       std::size_t cdf_points = 20);

}  // namespace pandas::harness
