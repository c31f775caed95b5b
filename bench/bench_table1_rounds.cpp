// Reproduces Table 1: "Fetching algorithm performance in successive rounds"
// (values averaged over all nodes, +- standard deviation), for the redundant
// seeding strategy at 1,000 nodes.

#include <algorithm>
#include <cstdio>

#include "harness/experiment.h"
#include "harness/obs_cli.h"
#include "harness/report.h"
#include "harness/run_cli.h"

int main(int argc, char** argv) {
  using namespace pandas;
  harness::Flags flags;
  harness::RunCli run(flags,
                      {.nodes = 1000, .quick = true, .quick_nodes = 300});
  harness::ObsCli obs(flags);
  flags.parse(argc, argv);

  auto cfg = run.config(obs);
  cfg.policy = core::SeedingPolicy::redundant(8);
  cfg.block_gossip = false;

  harness::PandasExperiment experiment(cfg);
  const auto results = experiment.run();
  const auto snap = harness::snapshot_of("table1/redundant-8", cfg, results);

  if (obs.emit_json(snap)) {
    obs.finish(experiment);
    return 0;
  }

  harness::print_header(
      "Table 1: fetching performance per round (redundant r=8, " +
      std::to_string(cfg.net.nodes) + " nodes, " + std::to_string(cfg.slots) +
      " slots)");

  std::printf("  seed cells received per node: %s\n",
              harness::mean_std(results.seed_cells).c_str());
  const std::size_t rounds = std::min<std::size_t>(snap.table1.size(), 8);
  std::printf("\n  %-28s", "Round");
  for (std::size_t r = 0; r < rounds; ++r) std::printf("%18zu", r + 1);
  std::printf("\n");
  auto row = [&](const char* label, auto getter) {
    std::printf("  %-28s", label);
    for (std::size_t r = 0; r < rounds; ++r) {
      std::printf("%18s", harness::mean_std(getter(snap.table1[r])).c_str());
    }
    std::printf("\n");
  };
  using Row = harness::RoundRowSnapshot;
  row("Messages sent", [](const Row& a) { return a.messages; });
  row("Cells requested", [](const Row& a) { return a.requested; });
  row("Replies received in round", [](const Row& a) { return a.replies_in; });
  row("Replies received after round",
      [](const Row& a) { return a.replies_after; });
  row("Cells received in round", [](const Row& a) { return a.cells_in; });
  row("Cells received after round", [](const Row& a) { return a.cells_after; });
  row("Received cells duplicates", [](const Row& a) { return a.duplicates; });
  row("Cells reconstructed", [](const Row& a) { return a.reconstructed; });

  std::printf("  %-28s", "Cumulative coverage of F");
  for (std::size_t r = 0; r < rounds; ++r) {
    std::printf("%17.0f%%", snap.table1[r].coverage_pct.mean);
  }
  std::printf("\n");

  harness::print_header("Context");
  harness::print_summary("time to sampling",
                         snap.series_named("sampling_ms").summary, "ms");
  harness::print_summary("fetch messages/node",
                         snap.series_named("fetch_messages").summary, "");
  harness::print_summary("fetch traffic/node",
                         snap.series_named("fetch_mb").summary, " MB");
  std::printf("  sampling deadline met: %.2f%%\n",
              100.0 * snap.deadline_fraction);
  obs.finish(experiment);
  return 0;
}
