// Adversary cocktail: run PANDAS against every fault behavior at once — a
// chaos-style exercise of the fault-injection subsystem (docs/FAULTS.md).
// 20 % of the network is hostile or broken by default: fail-silent crashes,
// byzantine peers serving corrupt proofs, selective withholders, mute
// free-riders, stragglers, and mid-slot churners, all drawn deterministically
// from the seed. The run demonstrates the hardening invariant: corrupt cells
// are rejected at the door (never accepted into custody), misbehaving peers
// are demoted and greylisted, and the correct population still consolidates
// and samples within the 4 s deadline.

#include <cstdio>

#include "fault/fault.h"
#include "harness/experiment.h"
#include "harness/fault_cli.h"
#include "harness/report.h"
#include "harness/run_cli.h"

int main(int argc, char** argv) {
  using namespace pandas;
  harness::Flags flags;
  harness::RunCli run(flags, {.nodes = 500, .slots = 2});
  harness::FaultCli fault_cli(flags);
  flags.parse(argc, argv);

  auto cfg = run.config();
  cfg.block_gossip = false;

  // Default cocktail when no axis is given on the command line.
  if (!fault_cli.any()) {
    fault_cli.faults.dead_fraction = 0.05;
    fault_cli.faults.byzantine_fraction = 0.05;
    fault_cli.faults.withhold_fraction = 0.03;
    fault_cli.faults.freerider_fraction = 0.03;
    fault_cli.faults.straggler_fraction = 0.02;
    fault_cli.faults.churn_fraction = 0.02;
  }
  fault_cli.apply(cfg);

  harness::PandasExperiment experiment(cfg);
  const auto& plan = experiment.fault_plan();

  harness::print_header("Adversary composition");
  for (std::size_t b = 0; b < fault::kBehaviorCount; ++b) {
    const auto behavior = static_cast<fault::Behavior>(b);
    std::printf("  %-20s %u nodes\n", fault::behavior_name(behavior),
                plan.count(behavior));
  }
  std::printf("  faulty total: %u/%u\n", plan.faulty_count(), cfg.net.nodes);

  const auto res = experiment.run();

  harness::print_header("Correct-population outcome");
  harness::print_summary("time to consolidation", res.consolidation_ms, "ms");
  harness::print_summary("time to sampling", res.sampling_ms, "ms");
  std::printf("  consolidation misses: %llu/%llu   sampling misses: %llu/%llu\n",
              static_cast<unsigned long long>(res.consolidation_misses),
              static_cast<unsigned long long>(res.records),
              static_cast<unsigned long long>(res.sampling_misses),
              static_cast<unsigned long long>(res.records));
  std::printf("  met 4 s deadline: %.2f%%\n", 100.0 * res.deadline_fraction());

  harness::print_header("Hardening counters");
  std::printf("  corrupt cells rejected:        %llu\n",
              static_cast<unsigned long long>(res.cells_corrupt_rejected));
  std::printf("  corrupt cells accepted:        %llu\n",
              static_cast<unsigned long long>(res.cells_corrupt_accepted));
  std::printf("  peer greylist events:          %llu\n",
              static_cast<unsigned long long>(res.peers_greylisted));
  std::printf("  peer round-timeouts charged:   %llu\n",
              static_cast<unsigned long long>(res.fetch_peer_timeouts));

  // The invariant the whole subsystem exists to demonstrate: whatever the
  // adversary serves, nothing unverified ever lands in custody.
  if (res.cells_corrupt_accepted > 0) {
    std::printf("\n  FAILURE: corrupt cells entered custody\n");
    return 1;
  }
  std::printf("\n  OK: zero corrupt cells accepted\n");
  return 0;
}
