// Reproduces Figure 11: impact of adaptive fetching. Compares PANDAS's
// adaptive schedule (decreasing timeouts, increasing redundancy) against a
// constant strategy (t = 400 ms, k = 1 in every round), with the redundant
// seeding policy.
//
// With --hedged a third configuration is appended: the adaptive schedule
// plus RTO-driven hedged duplicate queries (core/rtt.h). The fault-injection
// flags (harness/fault_cli.h) apply to every mode, so
//   bench_fig11_adaptive --hedged --partition 0.05 --loss-burst 0.1 --churn 0.1
// compares fixed vs adaptive vs hedged under identical link chaos. Without
// those flags the two paper modes are untouched.

#include <cstdio>

#include "harness/experiment.h"
#include "harness/fault_cli.h"
#include "harness/obs_cli.h"
#include "harness/report.h"
#include "harness/run_cli.h"

int main(int argc, char** argv) {
  using namespace pandas;
  harness::Flags flags;
  harness::RunCli run(flags, {.nodes = 500, .quick = true, .quick_nodes = 300});
  harness::ObsCli obs(flags);
  harness::FaultCli fault_cli(flags);
  flags.parse(argc, argv);

  if (!obs.json) {
    harness::print_header("Fig 11 — adaptive vs constant fetching (" +
                          std::to_string(run.nodes) + " nodes)");
  }
  enum class Mode { kAdaptive, kConstant, kHedged };
  std::vector<Mode> modes = {Mode::kAdaptive, Mode::kConstant};
  if (fault_cli.hedging) modes.push_back(Mode::kHedged);
  for (const Mode mode : modes) {
    auto cfg = run.config(obs);
    cfg.policy = core::SeedingPolicy::redundant(8);
    cfg.block_gossip = false;
    fault_cli.apply(cfg);
    cfg.params.adaptive = mode != Mode::kConstant;
    cfg.params.hedging = mode == Mode::kHedged;

    const char* label = mode == Mode::kAdaptive   ? "adaptive"
                        : mode == Mode::kConstant ? "constant"
                                                  : "hedged";
    harness::PandasExperiment experiment(cfg);
    const auto res = experiment.run();
    const auto snap =
        harness::snapshot_of(std::string("fig11/") + label, cfg, res);

    if (!obs.emit_json(snap)) {
      std::printf("\n  %s strategy:\n",
                  mode == Mode::kAdaptive   ? "adaptive"
                  : mode == Mode::kConstant ? "constant (t=400ms, k=1)"
                                            : "hedged (adaptive + RTO hedges)");
      harness::print_summary("(a) time to sampling",
                             snap.series_named("sampling_ms").summary, "ms");
      harness::print_summary("(b) messages in+out",
                             snap.series_named("fetch_messages").summary, "");
      std::printf("    sampling misses: %llu   met 4 s deadline: %.2f%%\n",
                  static_cast<unsigned long long>(snap.sampling_misses),
                  100.0 * snap.deadline_fraction);
      harness::print_hardening(snap);
    }
    obs.finish(experiment, label);
  }
  return 0;
}
