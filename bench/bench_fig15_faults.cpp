// Reproduces Figure 15: PANDAS under faults — (a) dead (crashed /
// free-riding) nodes and (b) out-of-view nodes, varying the faulty fraction
// from 0 % to 80 % in a 10,000-node network. Reports time-to-consolidation,
// time-to-sampling, and the fraction of correct nodes meeting the 4 s
// deadline.
//
// Beyond the paper's two axes, the bench sweeps the adversarial behaviors of
// the fault-injection subsystem (docs/FAULTS.md) at 0 / 20 / 40 %:
// byzantine-corrupt, selective-withhold, mute free-rider, straggler, and
// churn — reporting the hardening counters (corrupt cells rejected/accepted,
// peers greylisted) alongside the timing columns. A hardened run keeps
// "corr-acc" at exactly 0 on every row.
//
// Defaults run at a few hundred nodes so the suite completes on a laptop;
// pass --nodes 10000 for the paper's scale.

#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/fault_cli.h"
#include "harness/obs_cli.h"
#include "harness/report.h"
#include "harness/run_cli.h"

namespace {

enum class Axis { kDead, kOutOfView, kByzantine, kWithhold, kFreerider,
                  kStraggler, kChurn };

struct AxisSpec {
  Axis axis;
  const char* tag;    // snapshot label component
  const char* title;  // header
};

void apply_axis(pandas::harness::PandasConfig& cfg, Axis axis, double f) {
  switch (axis) {
    case Axis::kDead: cfg.faults.dead_fraction = f; break;
    case Axis::kOutOfView: cfg.out_of_view_fraction = f; break;
    case Axis::kByzantine: cfg.faults.byzantine_fraction = f; break;
    case Axis::kWithhold: cfg.faults.withhold_fraction = f; break;
    case Axis::kFreerider: cfg.faults.freerider_fraction = f; break;
    case Axis::kStraggler: cfg.faults.straggler_fraction = f; break;
    case Axis::kChurn: cfg.faults.churn_fraction = f; break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pandas;
  harness::Flags flags;
  harness::RunCli run(flags, {.nodes = 500, .quick = true, .quick_nodes = 300});
  harness::ObsCli obs(flags);
  harness::FaultCli fault_cli(flags);
  flags.parse(argc, argv);

  // The paper's Fig 15 axes sweep to 80 %; the adversarial axes stop at
  // 40 % (an honest majority per line is a protocol assumption, §4.1).
  const AxisSpec specs[] = {
      {Axis::kDead, "a", "dead"},
      {Axis::kOutOfView, "b", "out-of-view"},
      {Axis::kByzantine, "byz", "byzantine-corrupt"},
      {Axis::kWithhold, "wh", "selective-withhold"},
      {Axis::kFreerider, "fr", "mute free-rider"},
      {Axis::kStraggler, "str", "straggler"},
      {Axis::kChurn, "chn", "churn"},
  };
  const std::vector<double> paper_fracs = {0.0, 0.2, 0.4, 0.6, 0.8};
  const std::vector<double> adv_fracs = {0.0, 0.2, 0.4};

  const auto sweep_of = [&](const AxisSpec& spec) -> std::vector<double> {
    const bool paper_axis =
        spec.axis == Axis::kDead || spec.axis == Axis::kOutOfView;
    if (run.quick && !paper_axis && spec.axis != Axis::kByzantine) return {};
    return paper_axis ? paper_fracs : adv_fracs;
  };
  const auto config_of = [&](const AxisSpec& spec, double f) {
    auto cfg = run.config(obs);
    cfg.policy = core::SeedingPolicy::redundant(8);
    cfg.block_gossip = false;
    fault_cli.apply(cfg);
    apply_axis(cfg, spec.axis, f);
    return cfg;
  };
  // A sweep point sets one behavior fraction on top of the fault flags:
  // reject flags that push any point's behaviors above 1 before the first run.
  for (const auto& spec : specs) {
    for (const double f : sweep_of(spec)) {
      if (config_of(spec, f).faults.behavior_overflow() >= 0) {
        std::fprintf(stderr,
                     "fault flags plus the %s axis at %.0f%% sum above 1\n",
                     spec.title, f * 100);
        return 2;
      }
    }
  }

  for (const auto& spec : specs) {
    const auto fracs = sweep_of(spec);
    if (fracs.empty()) continue;
    if (!obs.json) {
      harness::print_header(std::string("Fig 15") + spec.tag + " — " +
                            spec.title + " nodes (" +
                            std::to_string(run.nodes) + " nodes)");
      std::printf("  %-9s %-12s %-12s %-12s %-10s %-10s %-9s %-9s\n",
                  "fraction", "cons p50", "samp p50", "samp p99", "met-4s",
                  "corr-rej", "corr-acc", "greylist");
    }
    for (const double f : fracs) {
      const auto cfg = config_of(spec, f);
      harness::PandasExperiment experiment(cfg);
      const auto res = experiment.run();
      const auto snap = harness::snapshot_of(
          std::string("fig15") + spec.tag + "/f" +
              std::to_string(static_cast<int>(f * 100)),
          cfg, res);
      if (!obs.emit_json(snap)) {
        const auto& cons = snap.series_named("consolidation_ms").summary;
        const auto& samp = snap.series_named("sampling_ms").summary;
        std::printf(
            "  %-9.0f%% %-12.0f %-12.0f %-12.0f %-9.1f%% %-10llu %-9llu"
            " %-9llu\n",
            f * 100, cons.n == 0 ? -1.0 : cons.p50,
            samp.n == 0 ? -1.0 : samp.p50, samp.n == 0 ? -1.0 : samp.p99,
            100.0 * snap.deadline_fraction,
            static_cast<unsigned long long>(snap.cells_corrupt_rejected),
            static_cast<unsigned long long>(snap.cells_corrupt_accepted),
            static_cast<unsigned long long>(snap.peers_greylisted));
        std::fflush(stdout);
      }
      obs.finish(experiment, std::string(spec.tag) + "-f" +
                                 std::to_string(static_cast<int>(f * 100)));
    }
  }
  return 0;
}
