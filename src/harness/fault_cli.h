#pragma once

#include "harness/args.h"
#include "harness/experiment.h"

/// Shared fault-injection CLI surface for bench binaries and examples:
///   --dead F                fail-silent fraction (Fig 15a axis)
///   --byzantine F           byzantine-corrupt fraction
///   --withhold F            selective-withholder fraction
///   --freerider F           mute free-rider fraction
///   --straggler F           straggler fraction
///   --churn F               churner fraction
///   --corrupt-rate R        fraction of a byzantine peer's cells corrupted
///   --withhold-cap N        cells served per line before withholding
///   --straggler-delay-ms N  extra service delay per transmission
///   --churn-down-ms N       downtime per mid-slot departure
///   --builder-corrupt       builder garbles its seed proof tags
///   --builder-withhold      builder withholds the decode-threshold column
///   --no-verify             disable proof-tag verification (accept corrupt)
///   --no-reputation         disable peer reputation / greylisting
///   --fault-seed N          dedicated adversary seed (0 = experiment seed)
///
/// Link-state chaos (orthogonal sets; may overlap the behaviors above):
///   --partition F           fraction split off each slot (group split)
///   --partition-heal-ms N   partition window length (heal time)
///   --partition-offset-ms N window start relative to slot start
///   --flap F                fraction whose link flaps (square wave)
///   --flap-period-ms N      flap period
///   --flap-down-ms N        down-time per period
///   --loss-burst F          fraction with Gilbert–Elliott burst loss
///   --ge-p-enter P          P(good -> bad) per packet
///   --ge-p-exit P           P(bad -> good) per packet
///   --ge-loss-bad P         per-packet loss while in the bad state
///   --bw-collapse F         fraction whose link rates collapse each slot
///   --bw-factor R           rate multiplier during the collapse window
///   --bw-offset-ms N        collapse window start relative to slot start
///   --bw-duration-ms N      collapse window length
///   --hedged                enable RTO-driven hedged duplicate queries
///
/// Every fraction must lie in [0, 1], and the behavior fractions draw
/// disjoint node sets, so they must sum to <= 1; a value breaking either rule
/// exits 2 with `<flag>: bad value '<v>'`.
namespace pandas::harness {

struct FaultCli {
  fault::FaultConfig faults;
  bool verify_cells = true;
  bool reputation = true;
  bool hedging = false;

  [[nodiscard]] static FaultCli parse(const Args& args) {
    FaultCli cli;
    auto& f = cli.faults;
    const auto fraction = [&args](const char* flag) {
      return args.get_double(flag, 0.0, 0.0, 1.0);
    };
    // Behavior flags in FaultConfig::behavior_overflow() order.
    static constexpr const char* kBehaviorFlags[] = {
        "--dead", "--byzantine", "--withhold",
        "--freerider", "--straggler", "--churn"};
    f.dead_fraction = fraction(kBehaviorFlags[0]);
    f.byzantine_fraction = fraction(kBehaviorFlags[1]);
    f.withhold_fraction = fraction(kBehaviorFlags[2]);
    f.freerider_fraction = fraction(kBehaviorFlags[3]);
    f.straggler_fraction = fraction(kBehaviorFlags[4]);
    f.churn_fraction = fraction(kBehaviorFlags[5]);
    if (const int k = f.behavior_overflow(); k >= 0) {
      args.reject(kBehaviorFlags[k]);
    }
    f.corrupt_rate = args.get_double("--corrupt-rate", f.corrupt_rate);
    f.withhold_serve_cap = static_cast<std::uint32_t>(
        args.get_int("--withhold-cap", f.withhold_serve_cap));
    f.straggler_delay =
        args.get_int("--straggler-delay-ms",
                     f.straggler_delay / sim::kMillisecond) *
        sim::kMillisecond;
    f.churn_downtime = args.get_int("--churn-down-ms",
                                    f.churn_downtime / sim::kMillisecond) *
                       sim::kMillisecond;
    f.builder.corrupt = args.has("--builder-corrupt");
    f.builder.withhold_threshold = args.has("--builder-withhold");
    f.partition_fraction = fraction("--partition");
    f.partition_heal = args.get_int("--partition-heal-ms",
                                    f.partition_heal / sim::kMillisecond) *
                       sim::kMillisecond;
    f.partition_offset = args.get_int("--partition-offset-ms",
                                      f.partition_offset / sim::kMillisecond) *
                         sim::kMillisecond;
    f.flap_fraction = fraction("--flap");
    f.flap_period = args.get_int("--flap-period-ms",
                                 f.flap_period / sim::kMillisecond) *
                    sim::kMillisecond;
    f.flap_down =
        args.get_int("--flap-down-ms", f.flap_down / sim::kMillisecond) *
        sim::kMillisecond;
    f.burst_fraction = fraction("--loss-burst");
    f.ge_p_enter = args.get_double("--ge-p-enter", f.ge_p_enter);
    f.ge_p_exit = args.get_double("--ge-p-exit", f.ge_p_exit);
    f.ge_loss_bad = args.get_double("--ge-loss-bad", f.ge_loss_bad);
    f.bw_collapse_fraction = fraction("--bw-collapse");
    f.bw_factor = args.get_double("--bw-factor", f.bw_factor);
    f.bw_offset =
        args.get_int("--bw-offset-ms", f.bw_offset / sim::kMillisecond) *
        sim::kMillisecond;
    f.bw_duration =
        args.get_int("--bw-duration-ms", f.bw_duration / sim::kMillisecond) *
        sim::kMillisecond;
    f.seed = static_cast<std::uint64_t>(args.get_int("--fault-seed", 0));
    cli.verify_cells = !args.has("--no-verify");
    cli.reputation = !args.has("--no-reputation");
    cli.hedging = args.has("--hedged");
    return cli;
  }

  /// Installs the parsed adversary + hardening switches on a run config.
  void apply(PandasConfig& cfg) const {
    cfg.faults = faults;
    cfg.params.verify_cells = verify_cells;
    cfg.params.reputation = reputation;
    cfg.params.hedging = hedging;
  }

  [[nodiscard]] bool any() const {
    return faults.any_node_fault() || faults.any_link_fault() ||
           faults.builder.faulty();
  }
};

}  // namespace pandas::harness
