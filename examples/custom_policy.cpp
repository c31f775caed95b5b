// Custom seeding policy: PANDAS's flexibility objective (§4.2) lets actors
// pick strategies matching their economic incentives. This example defines a
// "cautious builder" policy — single-copy seeding over rows plus an extra
// copy restricted to the best-provisioned half of the network — and compares
// its cost/latency trade-off against the built-in policies through the
// public SeedPlan API.

#include <cstdio>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/run_cli.h"

using namespace pandas;

namespace {

/// Builds a plan directly with the core API: demonstrates that a builder can
/// implement any dispatch strategy without protocol changes — nodes only
/// ever see seed messages and the CB map.
core::SeedPlan cautious_plan(const core::ProtocolParams& params,
                             const core::AssignmentTable& assignment,
                             const core::View& view, util::Xoshiro256& rng) {
  // Start from the built-in single policy (one copy of every cell)...
  auto policy = core::SeedingPolicy::single();
  auto plan = core::plan_seeding(params, assignment, view, policy, rng);

  // ...then add one extra copy of each node's current parcel to a random
  // "well-provisioned" peer sharing a line with it (here: even node indices
  // stand in for provider-grade nodes).
  const std::uint32_t n = view.universe();
  for (net::NodeIndex node = 0; node < n; ++node) {
    if (plan.cells_per_node[node].empty()) continue;
    const auto& lines = assignment.of(node);
    if (lines.rows.empty()) continue;
    const auto& peers =
        assignment.assigned_to(net::LineRef::row(lines.rows.front()));
    for (const auto peer : peers) {
      if (peer != node && peer % 2 == 0 && view.contains(peer)) {
        auto& dst = plan.cells_per_node[peer];
        const auto& src = plan.cells_per_node[node];
        dst.insert(dst.end(), src.begin(), src.end());
        plan.total_cell_copies += src.size();
        break;
      }
    }
  }
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Flags flags;
  harness::RunCli run(flags, {.nodes = 500, .slots = 0, .seed = 3});
  flags.parse(argc, argv);

  // First show the plan-level economics of the built-in policies.
  harness::print_header("Builder egress by policy (plan level)");
  {
    core::ProtocolParams params;
    const auto dir = net::Directory::create(run.nodes);
    const core::AssignmentTable table(params, dir,
                                      core::epoch_seed(run.seed, 0));
    const auto view = core::View::full(run.nodes);
    util::Xoshiro256 rng(run.seed);
    for (const auto& policy :
         {core::SeedingPolicy::minimal(), core::SeedingPolicy::single(),
          core::SeedingPolicy::redundant(8)}) {
      auto plan = core::plan_seeding(params, table, view, policy, rng);
      std::printf("  %-18s %10llu cell copies  = %s of cell data\n",
                  policy.name().c_str(),
                  static_cast<unsigned long long>(plan.total_cell_copies),
                  util::format_bytes(plan.total_cell_copies * 560.0).c_str());
    }
    auto plan = cautious_plan(params, table, view, rng);
    std::printf("  %-18s %10llu cell copies  = %s of cell data\n",
                "custom(cautious)",
                static_cast<unsigned long long>(plan.total_cell_copies),
                util::format_bytes(plan.total_cell_copies * 560.0).c_str());
  }

  // Then compare end-to-end latency of single vs redundant at this scale.
  harness::print_header("End-to-end comparison");
  for (const auto& policy :
       {core::SeedingPolicy::single(), core::SeedingPolicy::redundant(8)}) {
    auto cfg = run.config();
    cfg.policy = policy;
    cfg.block_gossip = false;
    const auto res = harness::PandasExperiment(cfg).run();
    std::printf("  %-18s sampling p50=%6.0f ms  p99=%6.0f ms  deadline=%5.1f%%  "
                "builder=%s\n",
                policy.name().c_str(), res.sampling_ms.median(),
                res.sampling_ms.percentile(99), 100 * res.deadline_fraction(),
                util::format_bytes(res.builder_bytes_per_slot).c_str());
  }
  std::printf("\nA rational builder picks the cheapest policy whose deadline\n"
              "probability protects its block reward (§6.1).\n");
  return 0;
}
