// Reproduces Figure 14: blob dissemination time, messages, and bandwidth for
// PANDAS and the two baselines as the network scales from 1,000 to 20,000
// nodes.
//
// The trace/metrics/records exporters cover the PANDAS runs; baselines
// report through the snapshot/--json path only.

#include <cstdio>
#include <vector>

#include "harness/baseline_experiments.h"
#include "harness/obs_cli.h"
#include "harness/report.h"
#include "harness/run_cli.h"

namespace {

void print_row(std::uint32_t n, const char* system,
               const pandas::harness::ResultsSnapshot& snap,
               const char* msgs_series, const char* mb_series) {
  std::printf("  %-7u %-14s %8.0f / %-8.0f       %8.0f / %6.2f / %5.1f%%\n",
              n, system, snap.series_named("sampling_ms").summary.p50,
              snap.series_named("sampling_ms").summary.p99,
              snap.series_named(msgs_series).summary.mean,
              snap.series_named(mb_series).summary.mean,
              100.0 * snap.deadline_fraction);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pandas;
  harness::Flags flags;
  harness::RunCli run(flags, {.quick = true});
  harness::ObsCli obs(flags);
  std::uint32_t max_nodes = 1000;
  flags.add("--max-nodes", max_nodes, "largest network size swept");
  flags.parse(argc, argv);

  std::vector<std::uint32_t> sizes;
  for (const std::uint32_t n : {1000u, 3000u, 5000u, 10000u, 20000u}) {
    if (n <= max_nodes) sizes.push_back(n);
  }

  if (!obs.json) {
    harness::print_header("Fig 14 — baseline scaling (sampling p50/p99 ms, "
                          "avg msgs, avg MB, met-4s %)");
    std::printf("  %-7s %-14s %-28s %-28s\n", "N", "system",
                "sampling p50/p99 (ms)", "msgs avg / MB avg / met-4s");
  }
  for (const auto n : sizes) {
    auto base = run.config(obs);
    base.net.nodes = n;
    {
      auto cfg = base;
      cfg.policy = core::SeedingPolicy::redundant(8);
      cfg.block_gossip = false;
      harness::PandasExperiment experiment(cfg);
      const auto res = experiment.run();
      const auto snap =
          harness::snapshot_of("fig14/pandas/n" + std::to_string(n), cfg, res);
      if (!obs.emit_json(snap)) {
        print_row(n, "PANDAS", snap, "fetch_messages", "fetch_mb");
      }
      obs.finish(experiment, "n" + std::to_string(n));
    }
    {
      harness::GossipDasConfig cfg;
      cfg.net = base.net;
      cfg.slots = base.slots;
      const auto res = harness::GossipDasExperiment(cfg).run();
      const auto snap = harness::snapshot_of(
          "fig14/gossip-das/n" + std::to_string(n), cfg.net, cfg.slots, res);
      if (!obs.emit_json(snap)) {
        print_row(n, "GossipSub-DAS", snap, "messages", "traffic_mb");
      }
    }
    {
      harness::DhtDasConfig cfg;
      cfg.net = base.net;
      cfg.slots = base.slots;
      const auto res = harness::DhtDasExperiment(cfg).run();
      const auto snap = harness::snapshot_of(
          "fig14/dht-das/n" + std::to_string(n), cfg.net, cfg.slots, res);
      if (!obs.emit_json(snap)) {
        print_row(n, "DHT-DAS", snap, "messages", "traffic_mb");
      }
    }
  }
  return 0;
}
