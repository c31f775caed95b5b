// Reproduces Figure 13: PANDAS scalability from 1,000 to 20,000 nodes —
// (a) phase-time distributions, (b) fetch messages, (c) fetch bandwidth,
// with the redundant seeding strategy.
//
// --engine-stats appends a per-size scheduler line (events executed,
// events/sec, wall seconds per sim second, peak queue depth) to stderr —
// the numbers behind EXPERIMENTS.md's scheduler table.
//
// Defaults stop at 5,000 nodes so the whole bench suite completes on a
// laptop; pass --max-nodes 20000 for the paper's full sweep. Large sweeps
// pair well with --trace-sample-rate 0.01 and --trace-ring 4096 to bound
// trace memory.

#include <cstdio>
#include <vector>

#include "harness/experiment.h"
#include "harness/obs_cli.h"
#include "harness/report.h"
#include "harness/run_cli.h"

int main(int argc, char** argv) {
  using namespace pandas;
  harness::Flags flags;
  harness::RunCli run(flags, {.quick = true});
  harness::ObsCli obs(flags);
  bool engine_stats = false;
  std::uint32_t max_nodes = 3000;
  flags.flag("--engine-stats", engine_stats,
             "print per-size scheduler statistics on stderr");
  flags.add("--max-nodes", max_nodes, "largest network size swept");
  flags.quick_default("--max-nodes", max_nodes, run.quick, 1000u);
  flags.parse(argc, argv);

  std::vector<std::uint32_t> sizes;
  for (const std::uint32_t n : {1000u, 3000u, 5000u, 10000u, 20000u}) {
    if (n <= max_nodes) sizes.push_back(n);
  }

  if (!obs.json) {
    harness::print_header("Fig 13 — PANDAS scaling (redundant r=8, " +
                          std::to_string(run.slots) +
                          " slot(s) per size)");
    std::printf("  %-7s %-10s %-10s %-10s %-9s %-10s %-10s %-8s\n", "N",
                "seed p50", "cons p50", "samp p50", "samp p99", "msgs avg",
                "MB avg", "met-4s");
  }
  for (const auto n : sizes) {
    auto cfg = run.config(obs);
    cfg.net.nodes = n;
    cfg.policy = core::SeedingPolicy::redundant(8);
    cfg.block_gossip = false;

    harness::PandasExperiment experiment(cfg);
    if (engine_stats) experiment.parallel_engine().set_profiling(true);
    const auto res = experiment.run();
    if (engine_stats) {
      auto& peng = experiment.parallel_engine();
      const auto prof = peng.merged_profile();
      const auto& ws = peng.window_stats();
      std::fprintf(stderr,
                   "engine-stats n=%u threads=%u events=%llu "
                   "events_per_sec=%.0f wall_per_sim_s=%.3f "
                   "peak_queue=%llu allocs=%llu capacity=%zu "
                   "windows=%llu lane_events=%llu\n",
                   n, peng.shards(),
                   static_cast<unsigned long long>(prof.events),
                   prof.events_per_wall_second(), prof.wall_per_sim_second(),
                   static_cast<unsigned long long>(prof.peak_queue_depth),
                   static_cast<unsigned long long>(prof.scheduler_allocs),
                   static_cast<std::size_t>(prof.event_capacity),
                   static_cast<unsigned long long>(ws.windows),
                   static_cast<unsigned long long>(ws.lane_events));
    }
    const auto snap =
        harness::snapshot_of("fig13/n" + std::to_string(n), cfg, res);
    if (!obs.emit_json(snap)) {
      std::printf(
          "  %-7u %-10.0f %-10.0f %-10.0f %-9.0f %-10.0f %-10.2f %-7.2f%%\n",
          n, snap.series_named("seed_ms").summary.p50,
          snap.series_named("consolidation_ms").summary.p50,
          snap.series_named("sampling_ms").summary.p50,
          snap.series_named("sampling_ms").summary.p99,
          snap.series_named("fetch_messages").summary.mean,
          snap.series_named("fetch_mb").summary.mean,
          100.0 * snap.deadline_fraction);
      std::fflush(stdout);
    }
    obs.finish(experiment, "n" + std::to_string(n));
  }
  return 0;
}
