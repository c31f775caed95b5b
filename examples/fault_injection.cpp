// Fault injection: run PANDAS with a configurable fraction of dead
// (fail-silent / free-riding) nodes and inconsistent views, and demonstrate
// that (a) sampling degrades gracefully (paper Fig 15) and (b) a builder
// withholding blob data is always detected — no node ever attests
// availability of withheld data.

#include <cstdio>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/run_cli.h"

int main(int argc, char** argv) {
  using namespace pandas;
  harness::Flags flags;
  harness::RunCli run(flags, {.nodes = 500, .slots = 2, .seed = 11});
  double dead = 0.3;
  double oov = 0.2;
  flags.fraction("--dead", dead, "fail-silent node fraction");
  flags.fraction("--oov", oov,
                 "fraction of the network missing from each node's view");
  flags.parse(argc, argv);

  auto cfg = run.config();
  cfg.faults.dead_fraction = dead;
  cfg.out_of_view_fraction = oov;
  cfg.block_gossip = false;

  std::printf("PANDAS fault injection: %u nodes, %.0f%% dead, %.0f%% out-of-view\n",
              cfg.net.nodes, 100 * cfg.faults.dead_fraction,
              100 * cfg.out_of_view_fraction);

  harness::PandasExperiment experiment(cfg);
  const auto res = experiment.run();

  harness::print_header("Degradation under faults (correct nodes only)");
  harness::print_summary("time to consolidation", res.consolidation_ms, "ms");
  harness::print_summary("time to sampling", res.sampling_ms, "ms");
  std::printf("  consolidation misses: %llu/%llu   sampling misses: %llu/%llu\n",
              static_cast<unsigned long long>(res.consolidation_misses),
              static_cast<unsigned long long>(res.records),
              static_cast<unsigned long long>(res.sampling_misses),
              static_cast<unsigned long long>(res.records));
  std::printf("  met 4 s deadline: %.2f%%\n", 100.0 * res.deadline_fraction());

  // ---- Data-withholding attack ----------------------------------------
  // A rational-Byzantine builder (§4.1) may withhold blob data to save
  // bandwidth. Simulate a slot where the builder sends nothing: sampling
  // must fail at EVERY correct node (tight fork-choice: the block is
  // attested invalid).
  harness::print_header("Data-withholding attack");
  const sim::Time start = experiment.engine().now();
  std::uint32_t started = 0, sampled = 0;
  for (std::uint32_t i = 0; i < cfg.net.nodes; ++i) {
    experiment.node(i).begin_slot(999);
    ++started;
  }
  // No builder seeding happens; nodes only see silence and each other.
  experiment.engine().run_until(start + sim::kSlotDuration);
  for (std::uint32_t i = 0; i < cfg.net.nodes; ++i) {
    if (experiment.node(i).sampled()) ++sampled;
  }
  std::printf("  withholding slot: %u/%u nodes (incorrectly) attested "
              "availability\n", sampled, started);
  std::printf("  => withholding %s\n",
              sampled == 0 ? "DETECTED by every node" : "NOT fully detected");

  // ---- Corrupt-builder attack -----------------------------------------
  // Subtler than silence: the builder seeds the full matrix but garbles the
  // proof tags (fault::BuilderProfile::corrupt). Hardened nodes verify every
  // received cell, so the corrupt cells never enter custody, nothing is
  // servable, and — exactly as with withholding — zero nodes attest.
  harness::print_header("Corrupt-builder attack");
  auto ccfg = run.config();
  ccfg.slots = 1;
  ccfg.block_gossip = false;
  ccfg.faults.builder.corrupt = true;
  harness::PandasExperiment corrupt_run(ccfg);
  const auto cres = corrupt_run.run();
  std::printf("  corrupt cells rejected: %llu   accepted into custody: %llu\n",
              static_cast<unsigned long long>(cres.cells_corrupt_rejected),
              static_cast<unsigned long long>(cres.cells_corrupt_accepted));
  std::printf("  corrupt-builder slot: %llu/%llu nodes (incorrectly) attested "
              "availability\n",
              static_cast<unsigned long long>(cres.records -
                                              cres.sampling_misses),
              static_cast<unsigned long long>(cres.records));
  const bool corrupt_detected = cres.sampling_misses == cres.records &&
                                cres.cells_corrupt_accepted == 0 &&
                                cres.cells_corrupt_rejected > 0;
  std::printf("  => corruption %s\n", corrupt_detected
                                          ? "REJECTED by every node"
                                          : "NOT fully rejected");
  return (sampled == 0 && corrupt_detected) ? 0 : 1;
}
