// Reproduces Figure 10: distribution of messages and traffic volume for
// fetching across nodes (both directions), for the three seeding strategies
// at 1,000 nodes. Also decomposes total transport traffic by message class
// (seed / query / response / gossip / dht), the breakdown behind the
// figure's per-phase bars.
//
//   ./build/bench/bench_fig10_bandwidth [--nodes 1000] [--slots 10] [--quick]
//                                       [--json] [--trace-out F]
//                                       [--metrics-out F] [--records-out F]

#include <cstdio>

#include "harness/experiment.h"
#include "harness/obs_cli.h"
#include "harness/report.h"
#include "harness/run_cli.h"

int main(int argc, char** argv) {
  using namespace pandas;
  harness::Flags flags;
  harness::RunCli run(flags, {.nodes = 500, .quick = true, .quick_nodes = 300});
  harness::ObsCli obs(flags);
  flags.parse(argc, argv);

  const core::SeedingPolicy policies[] = {
      core::SeedingPolicy::minimal(),
      core::SeedingPolicy::single(),
      core::SeedingPolicy::redundant(8),
  };

  if (!obs.json) {
    harness::print_header("Fig 10 — fetch messages & traffic per node (" +
                          std::to_string(run.nodes) + " nodes, " +
                          std::to_string(run.slots) + " slots)");
  }
  for (const auto& policy : policies) {
    auto cfg = run.config(obs);
    cfg.policy = policy;
    cfg.block_gossip = false;

    harness::PandasExperiment experiment(cfg);
    const auto res = experiment.run();
    const auto snap = harness::snapshot_of("fig10/" + policy.name(), cfg, res);

    if (!obs.emit_json(snap)) {
      std::printf("\n  policy %s:\n", policy.name().c_str());
      harness::print_summary("fetch messages (in+out)",
                             snap.series_named("fetch_messages").summary, "");
      harness::print_summary("fetch traffic (in+out)",
                             snap.series_named("fetch_mb").summary, " MB");
      const auto fetch_mb_max = snap.series_named("fetch_mb").summary.max;
      std::printf("    EIP-7870 check: max traffic %.2f MB over a slot "
                  "(equivalent avg %.2f Mbps; budget 50/15 Mbps)\n",
                  fetch_mb_max, fetch_mb_max * 8.0 / 12.0);
      const auto totals = experiment.transport().typed_totals();
      std::printf("    traffic by class (network-wide):\n");
      for (std::size_t c = 0; c < net::kMsgClassCount; ++c) {
        const auto& t = totals.by_class[c];
        if (t.msgs_sent == 0) continue;
        std::printf("      %-9s %10llu msgs  %12s sent  (%llu lost, "
                    "%llu cells dropped)\n",
                    net::msg_class_name(static_cast<net::MsgClass>(c)),
                    static_cast<unsigned long long>(t.msgs_sent),
                    util::format_bytes(static_cast<double>(t.bytes_sent)).c_str(),
                    static_cast<unsigned long long>(t.msgs_lost),
                    static_cast<unsigned long long>(t.cells_lost));
      }
    }
    obs.finish(experiment, policy.name());
  }
  return 0;
}
