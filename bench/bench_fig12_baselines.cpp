// Reproduces Figure 12: time-to-sampling and message counts for PANDAS
// (redundant r=8) versus the two baselines built on existing P2P layers —
// GossipSub-based DAS and Kademlia-DHT-based DAS — at 1,000 nodes, with
// equal builder egress budgets.
//
// The trace/metrics/records exporters cover the PANDAS experiment; the
// baseline harnesses report through the snapshot/--json path only.

#include <cstdio>

#include "harness/baseline_experiments.h"
#include "harness/obs_cli.h"
#include "harness/report.h"
#include "harness/run_cli.h"

namespace {

void print_baseline(const pandas::harness::ResultsSnapshot& snap,
                    const char* title) {
  std::printf("\n  %s:\n", title);
  pandas::harness::print_summary(
      "(a) time to sampling", snap.series_named("sampling_ms").summary, "ms");
  pandas::harness::print_summary(
      "(b) messages (transport)", snap.series_named("messages").summary, "");
  std::printf("    sampling misses: %llu   met 4 s deadline: %.2f%%\n",
              static_cast<unsigned long long>(snap.sampling_misses),
              100.0 * snap.deadline_fraction);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pandas;
  harness::Flags flags;
  harness::RunCli run(flags, {.nodes = 500, .quick = true, .quick_nodes = 300});
  harness::ObsCli obs(flags);
  flags.parse(argc, argv);
  const auto base = run.config(obs);

  if (!obs.json) {
    harness::print_header("Fig 12 — PANDAS vs GossipSub-DAS vs DHT-DAS (" +
                          std::to_string(run.nodes) + " nodes)");
  }

  {
    auto cfg = base;
    cfg.policy = core::SeedingPolicy::redundant(8);
    cfg.block_gossip = false;
    harness::PandasExperiment experiment(cfg);
    const auto res = experiment.run();
    const auto snap = harness::snapshot_of("fig12/pandas", cfg, res);
    if (!obs.emit_json(snap)) {
      std::printf("\n  PANDAS (redundant r=8):\n");
      harness::print_summary("(a) time to sampling",
                             snap.series_named("sampling_ms").summary, "ms");
      harness::print_summary("(b) fetch messages",
                             snap.series_named("fetch_messages").summary, "");
      std::printf("    sampling misses: %llu   met 4 s deadline: %.2f%%\n",
                  static_cast<unsigned long long>(snap.sampling_misses),
                  100.0 * snap.deadline_fraction);
    }
    obs.finish(experiment);
  }
  {
    harness::GossipDasConfig cfg;
    cfg.net = base.net;
    cfg.slots = base.slots;
    const auto res = harness::GossipDasExperiment(cfg).run();
    const auto snap =
        harness::snapshot_of("fig12/gossip-das", cfg.net, cfg.slots, res);
    if (!obs.emit_json(snap)) {
      print_baseline(snap, "GossipSub-DAS baseline");
    }
  }
  {
    harness::DhtDasConfig cfg;
    cfg.net = base.net;
    cfg.slots = base.slots;
    const auto res = harness::DhtDasExperiment(cfg).run();
    const auto snap =
        harness::snapshot_of("fig12/dht-das", cfg.net, cfg.slots, res);
    if (!obs.emit_json(snap)) {
      print_baseline(snap, "Kademlia-DHT-DAS baseline");
    }
  }
  return 0;
}
