#include "harness/snapshot.h"

#include "net/udp_transport.h"
#include "obs/json.h"

namespace pandas::harness {

namespace {

TableCell cell_of(const util::Samples& s) {
  TableCell c;
  c.n = s.count();
  if (!s.empty()) {
    c.mean = s.mean();
    c.stddev = s.stddev();
  }
  return c;
}

void write_cell(obs::JsonWriter& w, std::string_view name, const TableCell& c) {
  w.key(name);
  w.begin_object();
  w.kv("n", static_cast<std::uint64_t>(c.n));
  w.kv("mean", c.mean);
  w.kv("stddev", c.stddev);
  w.end_object();
}

}  // namespace

TransportSnapshot transport_snapshot_of(const net::UdpTransport& transport) {
  TransportSnapshot out;
  out.endpoints = transport.endpoint_count();
  out.send_failures = transport.send_failures();
  out.emsgsize_failures = transport.emsgsize_failures();
  out.oversize_fragments = transport.oversize_fragments();
  out.decode_failures = transport.decode_failures();
  const auto totals = transport.typed_totals();
  out.by_class.reserve(net::kMsgClassCount);
  for (std::size_t c = 0; c < net::kMsgClassCount; ++c) {
    const auto cls = static_cast<net::MsgClass>(c);
    const auto& t = totals.of(cls);
    TransportClassSnapshot row;
    row.name = net::msg_class_name(cls);
    row.msgs_sent = t.msgs_sent;
    row.msgs_received = t.msgs_received;
    row.bytes_sent = t.bytes_sent;
    row.bytes_received = t.bytes_received;
    row.cells_sent = t.cells_sent;
    row.cells_received = t.cells_received;
    out.by_class.push_back(std::move(row));
  }
  return out;
}

SeriesSnapshot series_of(const std::string& name, const std::string& unit,
                         const util::Samples& s, std::size_t cdf_points) {
  SeriesSnapshot out;
  out.name = name;
  out.unit = unit;
  out.summary = s.summary();
  if (cdf_points > 0) out.cdf = s.cdf(cdf_points);
  return out;
}

ResultsSnapshot snapshot_of(const std::string& label, const PandasConfig& cfg,
                            const PandasResults& res, std::size_t cdf_points) {
  ResultsSnapshot out;
  out.experiment = label;
  out.seed = cfg.net.seed;
  out.nodes = cfg.net.nodes;
  out.slots = cfg.slots;
  out.records = res.records;
  out.consolidation_misses = res.consolidation_misses;
  out.sampling_misses = res.sampling_misses;
  out.deadline_fraction = res.deadline_fraction();
  out.builder_bytes_per_slot = res.builder_bytes_per_slot;
  out.builder_msgs_per_slot = res.builder_msgs_per_slot;
  out.cells_corrupt_rejected = res.cells_corrupt_rejected;
  out.cells_corrupt_accepted = res.cells_corrupt_accepted;
  out.peers_greylisted = res.peers_greylisted;
  out.fetch_peer_timeouts = res.fetch_peer_timeouts;
  out.rto_expirations = res.rto_expirations;
  out.hedges_sent = res.hedges_sent;
  out.hedge_wins = res.hedge_wins;
  out.partition_heals = res.partition_heals;

  out.series.push_back(series_of("seed_ms", "ms", res.seed_ms, cdf_points));
  out.series.push_back(series_of("consolidation_from_seed_ms", "ms",
                                 res.consolidation_from_seed_ms, cdf_points));
  out.series.push_back(
      series_of("consolidation_ms", "ms", res.consolidation_ms, cdf_points));
  out.series.push_back(
      series_of("sampling_ms", "ms", res.sampling_ms, cdf_points));
  out.series.push_back(series_of("block_ms", "ms", res.block_ms, cdf_points));
  out.series.push_back(
      series_of("fetch_messages", "msgs", res.fetch_messages, cdf_points));
  out.series.push_back(series_of("fetch_mb", "MB", res.fetch_mb, cdf_points));
  out.series.push_back(
      series_of("seed_cells", "cells", res.seed_cells, cdf_points));

  out.table1.reserve(res.rounds.size());
  for (std::size_t r = 0; r < res.rounds.size(); ++r) {
    const auto& agg = res.rounds[r];
    RoundRowSnapshot row;
    row.round = static_cast<std::uint32_t>(r + 1);
    row.messages = cell_of(agg.messages);
    row.requested = cell_of(agg.requested);
    row.replies_in = cell_of(agg.replies_in);
    row.replies_after = cell_of(agg.replies_after);
    row.cells_in = cell_of(agg.cells_in);
    row.cells_after = cell_of(agg.cells_after);
    row.duplicates = cell_of(agg.duplicates);
    row.reconstructed = cell_of(agg.reconstructed);
    row.coverage_pct = cell_of(agg.coverage_pct);
    out.table1.push_back(row);
  }
  return out;
}

ResultsSnapshot snapshot_of(const std::string& label, const NetworkConfig& net,
                            std::uint32_t slots, const BaselineResults& res,
                            std::size_t cdf_points) {
  ResultsSnapshot out;
  out.experiment = label;
  out.seed = net.seed;
  out.nodes = net.nodes;
  out.slots = slots;
  out.records = res.records;
  out.sampling_misses = res.sampling_misses;
  out.deadline_fraction = res.deadline_fraction();
  out.series.push_back(
      series_of("custody_ms", "ms", res.custody_ms, cdf_points));
  out.series.push_back(
      series_of("sampling_ms", "ms", res.sampling_ms, cdf_points));
  out.series.push_back(series_of("messages", "msgs", res.messages, cdf_points));
  out.series.push_back(
      series_of("traffic_mb", "MB", res.traffic_mb, cdf_points));
  return out;
}

void ResultsSnapshot::write_json(std::FILE* out) const {
  obs::JsonWriter w(out);
  w.begin_object();
  w.kv("experiment", experiment);
  w.key("config");
  w.begin_object();
  w.kv("nodes", nodes);
  w.kv("slots", slots);
  w.kv("seed", seed);
  w.end_object();
  w.kv("records", records);
  w.kv("consolidation_misses", consolidation_misses);
  w.kv("sampling_misses", sampling_misses);
  w.kv("deadline_fraction", deadline_fraction);
  w.key("hardening");
  w.begin_object();
  w.kv("cells_corrupt_rejected", cells_corrupt_rejected);
  w.kv("cells_corrupt_accepted", cells_corrupt_accepted);
  w.kv("peers_greylisted", peers_greylisted);
  w.kv("fetch_peer_timeouts", fetch_peer_timeouts);
  w.end_object();
  if (any_hedging()) {
    w.key("hedging");
    w.begin_object();
    w.kv("rto_expirations", rto_expirations);
    w.kv("hedges_sent", hedges_sent);
    w.kv("hedge_wins", hedge_wins);
    w.kv("partition_heals", partition_heals);
    w.end_object();
  }
  w.key("builder");
  w.begin_object();
  w.kv("bytes_per_slot", builder_bytes_per_slot);
  w.kv("msgs_per_slot", builder_msgs_per_slot);
  w.end_object();

  w.key("series");
  w.begin_array();
  for (const auto& s : series) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("unit", s.unit);
    w.key("summary");
    w.begin_object();
    w.kv("n", static_cast<std::uint64_t>(s.summary.n));
    w.kv("min", s.summary.min);
    w.kv("p50", s.summary.p50);
    w.kv("mean", s.summary.mean);
    w.kv("stddev", s.summary.stddev);
    w.kv("p99", s.summary.p99);
    w.kv("max", s.summary.max);
    w.kv("sum", s.summary.sum);
    w.end_object();
    w.key("cdf");
    w.begin_array();
    for (const auto& [v, f] : s.cdf) {
      w.begin_array();
      w.value(v);
      w.value(f);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("table1");
  w.begin_array();
  for (const auto& row : table1) {
    w.begin_object();
    w.kv("round", row.round);
    write_cell(w, "messages", row.messages);
    write_cell(w, "requested", row.requested);
    write_cell(w, "replies_in", row.replies_in);
    write_cell(w, "replies_after", row.replies_after);
    write_cell(w, "cells_in", row.cells_in);
    write_cell(w, "cells_after", row.cells_after);
    write_cell(w, "duplicates", row.duplicates);
    write_cell(w, "reconstructed", row.reconstructed);
    write_cell(w, "coverage_pct", row.coverage_pct);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace pandas::harness
