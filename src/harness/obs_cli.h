#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/experiment.h"
#include "harness/flags.h"
#include "harness/report.h"
#include "harness/snapshot.h"

/// Shared observability flags of every bench binary (`--help` lists them).
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
  bool json = false;
  std::uint32_t sim_threads = 1;
  /// The observability switches the flags select.
  ObsConfig config;

  /// Declares the observability flags into `flags`.
  explicit ObsCli(Flags& flags) {
    flags.path("--trace-out", trace_out,
               "Chrome trace-event JSON (chrome://tracing, Perfetto)");
    flags.flag("--trace-flows", config.trace_flows,
               "add seed/query/reply flow arrows to the trace; enables "
               "causal collection");
    flags.fraction("--trace-sample-rate", config.trace.sample_rate,
                   "fraction of actors traced");
    flags.add("--trace-ring", config.trace.ring_capacity,
              "per-actor trace ring capacity, 0 keeps every event");
    flags.path("--metrics-out", metrics_out,
               "metrics registry JSON (byte-deterministic for a seed)");
    flags.flag("--metrics-wall", config.wall_metrics,
               "add wall-clock engine gauges to the metrics (not "
               "byte-deterministic)");
    flags.path("--records-out", records_out, "per-(node, slot) JSONL records");
    flags.path("--attribution-out", attribution_out,
               "per-(node, slot) deadline-attribution JSONL; enables causal "
               "collection");
    flags.flag("--json", json,
               "machine-readable snapshots on stdout instead of the report");
    flags.add("--sim-threads", sim_threads,
              "engine shards; any value exports byte-identical results",
              std::uint32_t{1}, kMaxSimThreads);
    // Fail fast on unwritable export paths instead of after a full run. The
    // probe writes valid-but-empty exports: when every finish() call is
    // labeled, the unsuffixed path keeps this stub instead of garbage.
    flags.then([this] {
      config.trace.enabled = !trace_out.empty();
      config.metrics = !metrics_out.empty();
      config.collect_records = !records_out.empty();
      config.causal = config.trace_flows || !attribution_out.empty();
      finish_empty();
    });
  }
  ObsCli(const ObsCli&) = delete;
  ObsCli& operator=(const ObsCli&) = delete;

  /// Turns the requested exporters into harness observability switches.
  void apply(PandasConfig& cfg) const {
    cfg.net.sim_threads = sim_threads;
    cfg.obs = config;
  }

  /// Writes the requested export files from a finished experiment. `label`
  /// distinguishes configurations in multi-config benches (empty = export
  /// paths used verbatim). Also prints the one-line trace-drop warning and,
  /// in human mode, the deadline-attribution table.
  void finish(PandasExperiment& ex, const std::string& label = "") const {
    write_file(labeled(trace_out, label), [&](std::FILE* f) {
      ex.tracer().write_chrome_trace(f, config.trace_flows ? &ex.causal()
                                                          : nullptr);
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

  /// Under --json, prints `snap` as one JSON line on stdout (JSONL across
  /// configs) and returns true; otherwise the caller prints its report.
  [[nodiscard]] bool emit_json(const ResultsSnapshot& snap) const {
    if (json) {
      snap.write_json(stdout);
      std::fputc('\n', stdout);
    }
    return json;
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
