#pragma once

#include <cstdio>
#include <string>

#include "harness/snapshot.h"
#include "obs/attribution.h"
#include "util/stats.h"

/// Console reporting helpers shared by the bench binaries: each bench prints
/// the same rows/series as the corresponding paper table or figure. All
/// renderers work from structured snapshots (util::Summary, SeriesSnapshot,
/// TableCell) — the same data the `--json` exporter serializes — so console
/// and JSON output can never disagree.
namespace pandas::harness {

/// Prints "label: n=.. min=.. p50=.. mean=.. p99=.. max=..".
inline void print_summary(const std::string& label, const util::Summary& s,
                          const std::string& unit) {
  std::printf("  %-34s %s\n", label.c_str(), util::summarize(s, unit).c_str());
}

inline void print_summary(const std::string& label, const util::Samples& s,
                          const std::string& unit) {
  print_summary(label, s.summary(), unit);
}

/// Prints a CDF as "value fraction" rows (default 20 points) — the series
/// behind the paper's distribution plots.
inline void print_cdf(const std::string& label, const util::Samples& s,
                      std::size_t points = 20) {
  std::printf("  CDF %s (%zu samples):\n", label.c_str(), s.count());
  for (const auto& [v, f] : s.cdf(points)) {
    std::printf("    %10.1f  %6.4f\n", v, f);
  }
}

inline void print_cdf(const SeriesSnapshot& s) {
  std::printf("  CDF %s (%zu samples):\n", s.name.c_str(), s.summary.n);
  for (const auto& [v, f] : s.cdf) {
    std::printf("    %10.1f  %6.4f\n", v, f);
  }
}

/// Prints "mean +- stddev" in Table-1 style.
inline std::string mean_std(const TableCell& c) {
  if (c.n == 0) return "-";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f +- %.0f", c.mean, c.stddev);
  return buf;
}

inline std::string mean_std(const util::Samples& s) {
  TableCell c;
  c.n = s.count();
  if (!s.empty()) {
    c.mean = s.mean();
    c.stddev = s.stddev();
  }
  return mean_std(c);
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Defensive-hardening / hedging counters in one human-readable block:
/// corrupt-cell outcomes, reputation outcomes (greylists + the round-deadline
/// `fetch_peer_timeouts` the reputation layer charged), and — when hedging or
/// link chaos is active — the RTO/hedge/heal counters. Prints nothing when
/// every counter is zero, so benign bench output is unchanged.
inline void print_hardening(const ResultsSnapshot& s) {
  const bool any = s.cells_corrupt_rejected > 0 || s.cells_corrupt_accepted > 0 ||
                   s.peers_greylisted > 0 || s.fetch_peer_timeouts > 0 ||
                   s.any_hedging();
  if (!any) return;
  std::printf("  Hardening counters:\n");
  const auto row = [](const char* name, std::uint64_t v) {
    std::printf("    %-24s %12llu\n", name, static_cast<unsigned long long>(v));
  };
  row("corrupt cells rejected", s.cells_corrupt_rejected);
  row("corrupt cells accepted", s.cells_corrupt_accepted);
  row("peers greylisted", s.peers_greylisted);
  row("fetch peer timeouts", s.fetch_peer_timeouts);
  if (s.any_hedging()) {
    row("rto expirations", s.rto_expirations);
    row("hedges sent", s.hedges_sent);
    row("hedge wins", s.hedge_wins);
    row("partition heals", s.partition_heals);
  }
}

/// Live-backend transport section: per-class traffic decomposition (the same
/// rows a sim run derives from TypedTrafficStats) plus the failure counters
/// that make silent datagram loss impossible.
inline void print_transport(const TransportSnapshot& t) {
  std::printf("  Live transport (udp, %llu endpoints):\n",
              static_cast<unsigned long long>(t.endpoints));
  std::printf("    %-10s %12s %12s %14s %14s %12s %12s\n", "class",
              "msgs sent", "msgs recv", "bytes sent", "bytes recv",
              "cells sent", "cells recv");
  for (const auto& c : t.by_class) {
    if (c.msgs_sent == 0 && c.msgs_received == 0) continue;
    std::printf("    %-10s %12llu %12llu %14llu %14llu %12llu %12llu\n",
                c.name.c_str(), static_cast<unsigned long long>(c.msgs_sent),
                static_cast<unsigned long long>(c.msgs_received),
                static_cast<unsigned long long>(c.bytes_sent),
                static_cast<unsigned long long>(c.bytes_received),
                static_cast<unsigned long long>(c.cells_sent),
                static_cast<unsigned long long>(c.cells_received));
  }
  std::printf("    send failures %llu (EMSGSIZE %llu), oversize fragments "
              "%llu, decode failures %llu\n",
              static_cast<unsigned long long>(t.send_failures),
              static_cast<unsigned long long>(t.emsgsize_failures),
              static_cast<unsigned long long>(t.oversize_fragments),
              static_cast<unsigned long long>(t.decode_failures));
}

/// "Top deadline contributors" table: per-category mean milliseconds on the
/// critical path (over all correct node-slots), sorted by total contribution,
/// plus how often each category dominated a completed / missed slot.
inline void print_attribution(const obs::AttributionAgg& agg,
                              const std::string& label = "") {
  if (agg.records() == 0) return;
  std::printf("  Deadline attribution%s%s (%llu node-slots, %llu missed):\n",
              label.empty() ? "" : " ", label.c_str(),
              static_cast<unsigned long long>(agg.records()),
              static_cast<unsigned long long>(agg.missed));
  std::printf("    %-16s %10s %7s %10s %10s\n", "category", "mean ms",
              "share", "dom(done)", "dom(miss)");
  double total = 0;
  for (const auto ms : agg.total_ms) total += ms;
  for (const auto c : agg.ranked()) {
    const auto i = static_cast<std::size_t>(c);
    if (agg.total_ms[i] == 0 && agg.dominant_completed[i] == 0 &&
        agg.dominant_missed[i] == 0) {
      continue;
    }
    std::printf("    %-16s %10.2f %6.1f%% %10llu %10llu\n",
                obs::category_name(c),
                agg.total_ms[i] / static_cast<double>(agg.records()),
                total > 0 ? 100.0 * agg.total_ms[i] / total : 0.0,
                static_cast<unsigned long long>(agg.dominant_completed[i]),
                static_cast<unsigned long long>(agg.dominant_missed[i]));
  }
}

}  // namespace pandas::harness
