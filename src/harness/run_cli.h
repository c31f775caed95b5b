#pragma once

#include <cstdint>

#include "harness/experiment.h"
#include "harness/flags.h"
#include "harness/obs_cli.h"

namespace pandas::harness {

/// A binary's run-size defaults. A zero `nodes` or `slots` leaves that flag
/// undeclared; zero quick values keep the full default under --quick.
struct RunSize {
  std::uint32_t nodes = 0;
  std::uint32_t slots = 1;
  std::uint64_t seed = 42;
  bool quick = false;  ///< declare --quick
  std::uint32_t quick_nodes = 0;
  std::uint32_t quick_slots = 0;
};

/// Largest --nodes any binary accepts.
inline constexpr std::uint32_t kMaxNodes = 100'000;

/// The --quick, --nodes, --slots and --seed flags shared by the PANDAS
/// benches and examples, and the base PandasConfig they describe.
struct RunCli {
  bool quick = false;
  std::uint32_t nodes;
  std::uint32_t slots;
  std::uint64_t seed;

  /// Declares the flags `size` asks for into `flags`.
  RunCli(Flags& flags, const RunSize& size)
      : nodes(size.nodes), slots(size.slots == 0 ? 1 : size.slots),
        seed(size.seed) {
    if (size.quick) {
      flags.flag("--quick", quick,
                 "use the defaults marked 'with --quick' below");
    }
    if (size.nodes != 0) {
      flags.add("--nodes", nodes, "network size", std::uint32_t{2}, kMaxNodes);
      if (size.quick_nodes != 0) {
        flags.quick_default("--nodes", nodes, quick, size.quick_nodes);
      }
    }
    if (size.slots != 0) {
      flags.add("--slots", slots, "12 s slots simulated", std::uint32_t{1},
                std::uint32_t{1000});
      if (size.quick_slots != 0) {
        flags.quick_default("--slots", slots, quick, size.quick_slots);
      }
    }
    flags.add("--seed", seed, "run seed");
  }
  RunCli(const RunCli&) = delete;
  RunCli& operator=(const RunCli&) = delete;

  /// The parsed network size, seed and slot count on a default config.
  [[nodiscard]] PandasConfig config() const {
    PandasConfig cfg;
    cfg.net.nodes = nodes;
    cfg.net.seed = seed;
    cfg.slots = slots;
    return cfg;
  }

  /// config() with the observability flags applied.
  [[nodiscard]] PandasConfig config(const ObsCli& obs) const {
    PandasConfig cfg = config();
    obs.apply(cfg);
    return cfg;
  }
};

}  // namespace pandas::harness
