// Quickstart: run one PANDAS slot cycle on a simulated WAN and watch the
// three protocol phases (seeding -> consolidation -> sampling) complete
// within Ethereum's 4-second attestation deadline.

#include <cstdio>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/run_cli.h"

int main(int argc, char** argv) {
  using namespace pandas;
  harness::Flags flags;
  harness::RunCli run(flags, {.nodes = 500, .slots = 2, .seed = 7});
  std::string policy = "redundant";
  flags.choice("--policy", policy, {"minimal", "single", "redundant"},
               "builder seeding policy");
  flags.parse(argc, argv);

  auto cfg = run.config();
  if (policy == "minimal") {
    cfg.policy = core::SeedingPolicy::minimal();
  } else if (policy == "single") {
    cfg.policy = core::SeedingPolicy::single();
  } else {
    cfg.policy = core::SeedingPolicy::redundant(8);
  }

  std::printf("PANDAS quickstart: %u nodes, %u slot(s), policy=%s\n",
              cfg.net.nodes, cfg.slots, cfg.policy.name().c_str());
  std::printf("Danksharding blob: %ux%u cells, %u B/cell wire, 73 samples/node\n",
              cfg.params.matrix_n, cfg.params.matrix_n,
              net::kCellWireBytes);

  harness::PandasExperiment experiment(cfg);
  const auto results = experiment.run();

  harness::print_header("Phase completion times (ms from slot start)");
  harness::print_summary("time to seeding", results.seed_ms, "ms");
  harness::print_summary("time to consolidation", results.consolidation_ms, "ms");
  harness::print_summary("time to sampling", results.sampling_ms, "ms");
  harness::print_summary("block dissemination (gossip)", results.block_ms, "ms");

  harness::print_header("Fetch-phase traffic per node (both directions)");
  harness::print_summary("messages", results.fetch_messages, "");
  harness::print_summary("traffic", results.fetch_mb, " MB");

  harness::print_header("Outcome");
  std::printf("  builder egress/slot: %s in %.0f messages\n",
              util::format_bytes(results.builder_bytes_per_slot).c_str(),
              results.builder_msgs_per_slot);
  std::printf("  sampling misses: %llu of %llu node-slots\n",
              static_cast<unsigned long long>(results.sampling_misses),
              static_cast<unsigned long long>(results.records));
  const double met = 100.0 * results.deadline_fraction();
  std::printf("  met 4 s deadline: %.2f%%\n", met);
  return met >= 95.0 ? 0 : 1;
}
