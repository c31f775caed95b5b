#pragma once

#include "harness/experiment.h"
#include "harness/flags.h"

/// Shared fault-injection and link-chaos flags for bench binaries and
/// examples (`--help` lists them). Every fraction must lie in [0, 1], and the
/// behavior fractions draw disjoint node sets, so they must sum to <= 1; a
/// value breaking either rule exits 2 with `<flag>: bad value '<v>'`.
namespace pandas::harness {

struct FaultCli {
  fault::FaultConfig faults;
  bool no_verify = false;
  bool no_reputation = false;
  bool hedging = false;

  /// Declares the fault flags into `flags`.
  explicit FaultCli(Flags& flags) {
    auto& f = faults;
    // Behavior flags in FaultConfig::behavior_overflow() order.
    static constexpr const char* kBehaviorFlags[] = {
        "--dead", "--byzantine", "--withhold",
        "--freerider", "--straggler", "--churn"};
    flags.fraction(kBehaviorFlags[0], f.dead_fraction,
                   "fail-silent node fraction (Fig 15a axis)");
    flags.fraction(kBehaviorFlags[1], f.byzantine_fraction,
                   "byzantine-corrupt node fraction");
    flags.fraction(kBehaviorFlags[2], f.withhold_fraction,
                   "selective-withholder fraction");
    flags.fraction(kBehaviorFlags[3], f.freerider_fraction,
                   "mute free-rider fraction");
    flags.fraction(kBehaviorFlags[4], f.straggler_fraction,
                   "straggler fraction");
    flags.fraction(kBehaviorFlags[5], f.churn_fraction, "churner fraction");
    flags.fraction("--corrupt-rate", f.corrupt_rate,
                   "fraction of a byzantine peer's cells corrupted");
    flags.add("--withhold-cap", f.withhold_serve_cap,
              "cells a withholder serves per line before withholding");
    flags.millis("--straggler-delay-ms", f.straggler_delay,
                 "extra service delay per transmission");
    flags.millis("--churn-down-ms", f.churn_downtime,
                 "downtime per mid-slot departure");
    flags.flag("--builder-corrupt", f.builder.corrupt,
               "builder garbles its seed proof tags");
    flags.flag("--builder-withhold", f.builder.withhold_threshold,
               "builder withholds the decode-threshold column");
    flags.flag("--no-verify", no_verify,
               "skip proof-tag verification (accept corrupt cells)");
    flags.flag("--no-reputation", no_reputation,
               "disable peer reputation and greylisting");
    flags.add("--fault-seed", f.seed, "adversary seed, 0 = the run seed");
    flags.fraction("--partition", f.partition_fraction,
                   "fraction split off the network each slot");
    flags.millis("--partition-heal-ms", f.partition_heal,
                 "partition window length");
    flags.millis("--partition-offset-ms", f.partition_offset,
                 "partition start after slot start");
    flags.fraction("--flap", f.flap_fraction,
                   "fraction whose link flaps (square wave)");
    flags.millis("--flap-period-ms", f.flap_period, "flap period");
    flags.millis("--flap-down-ms", f.flap_down, "down-time per flap period");
    flags.fraction("--loss-burst", f.burst_fraction,
                   "fraction with Gilbert-Elliott burst loss");
    flags.fraction("--ge-p-enter", f.ge_p_enter, "P(good -> bad) per packet");
    flags.fraction("--ge-p-exit", f.ge_p_exit, "P(bad -> good) per packet");
    flags.fraction("--ge-loss-bad", f.ge_loss_bad,
                   "per-packet loss in the bad state");
    flags.fraction("--bw-collapse", f.bw_collapse_fraction,
                   "fraction whose link rates collapse each slot");
    flags.add("--bw-factor", f.bw_factor,
              "link-rate multiplier while collapsed", 0.001, 1.0);
    flags.millis("--bw-offset-ms", f.bw_offset,
                 "collapse start after slot start");
    flags.millis("--bw-duration-ms", f.bw_duration, "collapse length");
    flags.flag("--hedged", hedging,
               "RTO-driven hedged duplicate queries");
    flags.then([this, &flags] {
      if (const int k = faults.behavior_overflow(); k >= 0) {
        flags.reject(kBehaviorFlags[k]);
      }
    });
  }
  FaultCli(const FaultCli&) = delete;
  FaultCli& operator=(const FaultCli&) = delete;

  /// Installs the parsed adversary + hardening switches on a run config.
  void apply(PandasConfig& cfg) const {
    cfg.faults = faults;
    cfg.params.verify_cells = !no_verify;
    cfg.params.reputation = !no_reputation;
    cfg.params.hedging = hedging;
  }

  [[nodiscard]] bool any() const {
    return faults.any_node_fault() || faults.any_link_fault() ||
           faults.builder.faulty();
  }
};

}  // namespace pandas::harness
