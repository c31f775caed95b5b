// Reproduces Figure 9: distribution of times for the three PANDAS phases
// (seeding, consolidation, sampling) across all nodes, for the three builder
// seeding strategies, at 1,000 nodes. Also prints the gossip block-delivery
// distribution plotted in Fig 9a.
//
// Export files are suffixed with the policy label (t.minimal.json,
// t.single.json, t.redundant-r-8.json, ...), one set per configuration.

#include <cstdio>

#include "harness/experiment.h"
#include "harness/obs_cli.h"
#include "harness/report.h"
#include "harness/run_cli.h"

int main(int argc, char** argv) {
  using namespace pandas;
  harness::Flags flags;
  harness::RunCli run(flags, {.nodes = 700, .quick = true, .quick_nodes = 300});
  harness::ObsCli obs(flags);
  bool no_boost = false;
  bool cdf = false;
  flags.flag("--no-boost", no_boost, "seed without the consolidation boost");
  flags.flag("--cdf", cdf, "print the seeding and sampling CDFs");
  flags.parse(argc, argv);

  const core::SeedingPolicy policies[] = {
      core::SeedingPolicy::minimal(),
      core::SeedingPolicy::single(),
      core::SeedingPolicy::redundant(8),
  };

  for (const auto& policy : policies) {
    auto cfg = run.config(obs);
    cfg.policy = policy;
    if (no_boost) cfg.policy.boost_enabled = false;

    harness::PandasExperiment experiment(cfg);
    const auto res = experiment.run();
    const auto snap = harness::snapshot_of("fig09/" + policy.name(), cfg, res);

    if (!obs.emit_json(snap)) {
      harness::print_header("Fig 9 — policy " + policy.name() + " (" +
                            std::to_string(run.nodes) + " nodes, " +
                            std::to_string(run.slots) + " slots)");
      harness::print_summary("(a) time to seeding",
                             snap.series_named("seed_ms").summary, "ms");
      harness::print_summary("(a) block via gossip",
                             snap.series_named("block_ms").summary, "ms");
      harness::print_summary(
          "(b) consolidation (from seeding)",
          snap.series_named("consolidation_from_seed_ms").summary, "ms");
      harness::print_summary("(c) consolidation (from start)",
                             snap.series_named("consolidation_ms").summary,
                             "ms");
      harness::print_summary("(d) time to sampling",
                             snap.series_named("sampling_ms").summary, "ms");
      std::printf("  consolidation misses: %llu   sampling misses: %llu\n",
                  static_cast<unsigned long long>(snap.consolidation_misses),
                  static_cast<unsigned long long>(snap.sampling_misses));
      std::printf("  met 4 s deadline: %.2f%%   builder egress/slot: %s\n",
                  100.0 * snap.deadline_fraction,
                  util::format_bytes(snap.builder_bytes_per_slot).c_str());
      if (cdf) {
        harness::print_cdf(snap.series_named("seed_ms"));
        harness::print_cdf(snap.series_named("sampling_ms"));
      }
    }
    obs.finish(experiment, policy.name());
  }
  return 0;
}
