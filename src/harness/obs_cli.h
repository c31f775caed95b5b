#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/args.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/snapshot.h"

/// Shared observability CLI surface wired into every bench binary:
///   --trace-out FILE        Chrome trace-event JSON (chrome://tracing,
///                           Perfetto)
///   --trace-flows           add Perfetto flow arrows (seed / query / reply
///                           causality) to the Chrome trace; also enables
///                           causal collection
///   --trace-sample-rate R   fraction of actors traced (default 1.0)
///   --trace-ring N          per-actor ring capacity (0 = keep everything)
///   --metrics-out FILE      metrics registry JSON dump (byte-deterministic
///                           for a given seed)
///   --metrics-wall          include wall-clock engine gauges in the dump
///                           (opts out of byte-determinism)
///   --records-out FILE      per-(node, slot) JSONL records
///   --attribution-out FILE  per-(node, slot) deadline-attribution JSONL
///                           (critical-path category breakdown, obs/
///                           attribution.h); enables causal collection
///   --json                  machine-readable snapshot(s) on stdout instead
///                           of the human report
///   --sim-threads N         engine shards for parallel execution, 1..64
///                           (default 1 = serial engine; any N exports
///                           byte-identical results, see docs/SIMULATION.md)
///
/// Multi-configuration benches call finish() once per experiment with a
/// config label: export filenames get ".<label>" inserted before the
/// extension (e.g. trace.json -> trace.n-128.json), so every configuration's
/// files survive instead of the last one silently overwriting the rest.
namespace pandas::harness {

struct ObsCli {
  std::string trace_out;
  std::string metrics_out;
  std::string records_out;
  std::string attribution_out;
  double sample_rate = 1.0;
  std::size_t ring = 0;
  bool json = false;
  bool wall = false;
  bool trace_flows = false;
  std::uint32_t sim_threads = 1;

  [[nodiscard]] static ObsCli parse(const Args& args) {
    ObsCli cli;
    cli.trace_out = args.get_str("--trace-out", "");
    cli.metrics_out = args.get_str("--metrics-out", "");
    cli.records_out = args.get_str("--records-out", "");
    cli.attribution_out = args.get_str("--attribution-out", "");
    cli.sample_rate = args.get_double("--trace-sample-rate", 1.0);
    cli.ring = static_cast<std::size_t>(args.get_int("--trace-ring", 0));
    cli.json = args.has("--json");
    cli.wall = args.has("--metrics-wall");
    cli.trace_flows = args.has("--trace-flows");
    cli.sim_threads = static_cast<std::uint32_t>(
        args.get_int("--sim-threads", 1, 1, kMaxSimThreads));
    // Fail fast on unwritable export paths instead of after a full run. The
    // probe writes valid-but-empty exports: when every finish() call is
    // labeled, the unsuffixed path keeps this stub instead of garbage.
    cli.finish_empty();
    return cli;
  }

  /// Turns the requested exporters into harness observability switches.
  void apply(PandasConfig& cfg) const {
    cfg.net.sim_threads = sim_threads;
    cfg.obs.trace.enabled = !trace_out.empty();
    cfg.obs.trace.sample_rate = sample_rate;
    cfg.obs.trace.ring_capacity = ring;
    cfg.obs.metrics = !metrics_out.empty();
    cfg.obs.wall_metrics = wall;
    cfg.obs.collect_records = !records_out.empty();
    cfg.obs.causal = trace_flows || !attribution_out.empty();
    cfg.obs.trace_flows = trace_flows;
  }

  [[nodiscard]] bool any_export() const {
    return !trace_out.empty() || !metrics_out.empty() ||
           !records_out.empty() || !attribution_out.empty();
  }

  /// Writes the requested export files from a finished experiment. `label`
  /// distinguishes configurations in multi-config benches (empty = export
  /// paths used verbatim). Also prints the one-line trace-drop warning and,
  /// in human mode, the deadline-attribution table.
  void finish(PandasExperiment& ex, const std::string& label = "") const {
    write_file(labeled(trace_out, label), [&](std::FILE* f) {
      ex.tracer().write_chrome_trace(f, trace_flows ? &ex.causal() : nullptr);
    });
    write_file(labeled(metrics_out, label),
               [&](std::FILE* f) { ex.registry().write_json(f); });
    write_file(labeled(records_out, label),
               [&](std::FILE* f) { ex.write_records_jsonl(f); });
    write_file(labeled(attribution_out, label),
               [&](std::FILE* f) { ex.write_attribution_jsonl(f); });
    if (const auto dropped = ex.tracer().total_dropped(); dropped > 0) {
      std::fprintf(stderr,
                   "warning: trace ring overflowed, %llu events dropped "
                   "(raise --trace-ring or lower --trace-sample-rate)\n",
                   static_cast<unsigned long long>(dropped));
    }
    if (!json && ex.causal().enabled() &&
        ex.attribution_agg().records() > 0) {
      print_attribution(ex.attribution_agg(), label);
    }
  }

  /// For benches (or bench modes) that run no PANDAS experiment: writes
  /// trivially valid, empty export files so downstream tooling never sees a
  /// missing path.
  void finish_empty() const {
    write_file(trace_out,
               [](std::FILE* f) { obs::Tracer().write_chrome_trace(f); });
    write_file(metrics_out,
               [](std::FILE* f) { obs::Registry(false).write_json(f); });
    write_file(records_out, [](std::FILE*) {});
    write_file(attribution_out, [](std::FILE*) {});
  }

  /// Emits one snapshot as a JSON line on stdout (JSONL across configs).
  static void emit_json(const ResultsSnapshot& snap) {
    snap.write_json(stdout);
    std::fputc('\n', stdout);
  }

 private:
  /// Inserts ".<label>" before the path's extension ("t.json" + "n-128" ->
  /// "t.n-128.json"). Labels are config names ("redundant(r=8)", "fig15a
  /// f=20"), so anything shell-hostile collapses to single dashes.
  [[nodiscard]] static std::string labeled(const std::string& path,
                                           const std::string& label) {
    if (path.empty() || label.empty()) return path;
    std::string tag;
    for (const char ch : label) {
      const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                      (ch >= '0' && ch <= '9') || ch == '.' || ch == '_' ||
                      ch == '-';
      if (ok) {
        tag.push_back(ch);
      } else if (!tag.empty() && tag.back() != '-') {
        tag.push_back('-');
      }
    }
    while (!tag.empty() && tag.back() == '-') tag.pop_back();
    if (tag.empty()) return path;
    const auto dot = path.find_last_of('.');
    const auto slash = path.find_last_of('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
      return path + "." + tag;
    }
    return path.substr(0, dot) + "." + tag + path.substr(dot);
  }

  template <typename Fn>
  static void write_file(const std::string& path, Fn&& fn) {
    if (path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   path.c_str());
      std::exit(1);
    }
    fn(f);
    std::fclose(f);
  }
};

}  // namespace pandas::harness
