#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/messages.h"
#include "sim/time.h"

/// Adversarial fault-injection subsystem (paper §4.1, Fig 15).
///
/// The rational-Byzantine setting assumes peers — and even the builder — may
/// crash, serve corrupt data, withhold selectively, free-ride, stall, or
/// churn. A FaultPlan attaches one behavior profile to every node (and one to
/// the builder) from a deterministic seeded draw, so the same (config, seed)
/// pair always produces the same adversary. The harness consults the plan to
/// configure SimTransport (dead links, straggler delay, churn toggles), the
/// nodes (serving behavior), and the builder (corrupt / threshold-withheld
/// seeding); docs/FAULTS.md maps each behavior to the paper's threat model.
namespace pandas::fault {

enum class Behavior : std::uint8_t {
  kCorrect = 0,
  /// Fail-silent crash / full free-rider: neither sends nor receives.
  kFailSilent,
  /// Serves cells whose simulated KZG proof tags do not verify.
  kByzantineCorrupt,
  /// Serves at most `withhold_serve_cap` cells per line per query and
  /// silently withholds the rest (no NACK exists, so requesters just wait).
  kSelectiveWithhold,
  /// Fetches (consumes bandwidth, consolidates) but never serves a query.
  kMuteFreeRider,
  /// Correct but slow: every transmission leaves `service_delay` late.
  kStraggler,
  /// Leaves mid-slot at `churn_offset` and rejoins `churn_downtime` later.
  kChurn,
};
inline constexpr std::size_t kBehaviorCount = 7;

/// Stable lowercase label ("correct", "fail_silent", ...).
[[nodiscard]] const char* behavior_name(Behavior b) noexcept;

/// Per-node behavior profile. Fields beyond `behavior` only apply to the
/// behaviors that read them.
struct NodeProfile {
  Behavior behavior = Behavior::kCorrect;
  /// kByzantineCorrupt: fraction of served cells whose proof tag is garbage.
  double corrupt_rate = 1.0;
  /// kSelectiveWithhold: cells served per line per query before withholding.
  std::uint32_t withhold_serve_cap = 1;
  /// kStraggler: extra delay added to every transmission.
  sim::Time service_delay = 0;
  /// kChurn: leave at slot_start + churn_offset, rejoin churn_downtime later.
  sim::Time churn_offset = 0;
  sim::Time churn_downtime = 0;

  [[nodiscard]] bool faulty() const noexcept {
    return behavior != Behavior::kCorrect;
  }
};

/// Builder-side misbehavior (the paper's rational builder, §4.1).
struct BuilderProfile {
  /// Seed cells carry invalid proof tags (for `corrupt_rate` of the cells):
  /// hardened nodes must reject every one and never attest.
  bool corrupt = false;
  double corrupt_rate = 1.0;
  /// Selective withholding at the decode threshold: only k-1 distinct
  /// columns of the matrix are ever seeded, so no row can reconstruct and
  /// sampling must fail network-wide.
  bool withhold_threshold = false;

  [[nodiscard]] bool faulty() const noexcept {
    return corrupt || withhold_threshold;
  }
};

/// Per-node link-state profile, drawn orthogonally to the behavior profile:
/// a node can churn AND sit in the partitioned group. The axes map onto
/// net::LinkChaos at the transport (docs/FAULTS.md "Network chaos").
struct LinkProfile {
  /// Member of the split-off partition group (group 1) during each slot's
  /// partition window.
  bool partitioned = false;
  /// Link flaps with the config's period/down-time at this phase offset.
  bool flap = false;
  sim::Time flap_phase = 0;
  /// Sends suffer Gilbert–Elliott burst loss.
  bool burst = false;
  /// Up/down link rates collapse during each slot's bw window.
  bool bw_collapse = false;

  [[nodiscard]] bool any() const noexcept {
    return partitioned || flap || burst || bw_collapse;
  }
};

/// Fault axes, as independent node fractions in [0, 1]. Fractions are drawn
/// from a disjoint shuffle: a node gets at most one behavior, so the
/// behavior fractions must sum to <= 1 (FaultPlan::generate() throws
/// otherwise).
struct FaultConfig {
  double dead_fraction = 0.0;
  double byzantine_fraction = 0.0;
  double withhold_fraction = 0.0;
  double freerider_fraction = 0.0;
  double straggler_fraction = 0.0;
  double churn_fraction = 0.0;

  /// Knobs for the behaviors drawn above.
  double corrupt_rate = 1.0;
  std::uint32_t withhold_serve_cap = 1;
  sim::Time straggler_delay = 300 * sim::kMillisecond;
  sim::Time churn_downtime = 1 * sim::kSecond;
  /// Churn departures are drawn uniformly from [0, churn_window).
  sim::Time churn_window = 2 * sim::kSecond;

  BuilderProfile builder{};

  /// ---- Link-state chaos fractions (orthogonal to the behaviors above;
  /// sets are drawn from independent shuffles and may overlap each other
  /// and any node behavior) ----

  /// Nodes split from the rest of the network each slot...
  double partition_fraction = 0.0;
  /// ...from slot_start + partition_offset, healing partition_heal later.
  sim::Time partition_offset = 0;
  sim::Time partition_heal = 1 * sim::kSecond;
  /// Nodes whose link flaps (square wave, per-node random phase).
  double flap_fraction = 0.0;
  sim::Time flap_period = 500 * sim::kMillisecond;
  sim::Time flap_down = 100 * sim::kMillisecond;
  /// Nodes whose sends suffer Gilbert–Elliott burst loss.
  double burst_fraction = 0.0;
  double ge_p_enter = 0.05;  ///< P(good -> bad) per packet
  double ge_p_exit = 0.25;   ///< P(bad -> good) per packet
  double ge_loss_bad = 0.5;  ///< per-packet loss in the bad state
  /// Nodes whose up/down link rates collapse by bw_factor each slot during
  /// [slot_start + bw_offset, + bw_offset + bw_duration).
  double bw_collapse_fraction = 0.0;
  double bw_factor = 0.1;
  sim::Time bw_offset = 0;
  sim::Time bw_duration = 2 * sim::kSecond;

  /// Seed for the profile draw; 0 inherits the experiment seed, keeping the
  /// adversary a pure function of the run seed.
  std::uint64_t seed = 0;

  [[nodiscard]] bool any_node_fault() const noexcept {
    return dead_fraction > 0 || byzantine_fraction > 0 ||
           withhold_fraction > 0 || freerider_fraction > 0 ||
           straggler_fraction > 0 || churn_fraction > 0;
  }
  [[nodiscard]] bool any_link_fault() const noexcept {
    return partition_fraction > 0 || flap_fraction > 0 || burst_fraction > 0 ||
           bw_collapse_fraction > 0;
  }
  /// Position, in draw order (dead, byzantine, withhold, freerider,
  /// straggler, churn), of the behavior fraction whose addition takes their
  /// sum above 1; -1 when they sum to at most 1 (up to rounding).
  [[nodiscard]] int behavior_overflow() const noexcept;
};

/// Deterministic per-node behavior assignment. Default-constructed plans are
/// all-correct, so components can hold a plan unconditionally.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Draws profiles for `nodes` nodes. `fallback_seed` is used when
  /// cfg.seed == 0 (the experiment seed, by convention). Throws
  /// std::invalid_argument when a fraction lies outside [0, 1] or the
  /// behavior fractions sum above 1.
  [[nodiscard]] static FaultPlan generate(const FaultConfig& cfg,
                                          std::uint32_t nodes,
                                          std::uint64_t fallback_seed);

  /// Profile of one node (all-correct default outside the planned range).
  [[nodiscard]] const NodeProfile& of(net::NodeIndex node) const noexcept {
    static const NodeProfile kCorrectProfile{};
    return node < profiles_.size() ? profiles_[node] : kCorrectProfile;
  }

  [[nodiscard]] const BuilderProfile& builder() const noexcept {
    return builder_;
  }

  /// True for every node the evaluation must exclude from the "correct
  /// node" population (any non-correct behavior, §8.2).
  [[nodiscard]] bool is_faulty(net::NodeIndex node) const noexcept {
    return of(node).faulty();
  }

  [[nodiscard]] std::uint32_t count(Behavior b) const noexcept {
    return counts_[static_cast<std::size_t>(b)];
  }
  [[nodiscard]] std::uint32_t faulty_count() const noexcept {
    std::uint32_t n = 0;
    for (std::size_t b = 1; b < kBehaviorCount; ++b) n += counts_[b];
    return n;
  }

  /// Nodes with the kChurn behavior (ascending index order).
  [[nodiscard]] const std::vector<net::NodeIndex>& churners() const noexcept {
    return churners_;
  }

  /// Link-state profile of one node (all-clear default outside the range).
  [[nodiscard]] const LinkProfile& link_of(net::NodeIndex node) const noexcept {
    static const LinkProfile kClearLink{};
    return node < links_.size() ? links_[node] : kClearLink;
  }
  [[nodiscard]] bool any_link_fault() const noexcept {
    return any_link_fault_;
  }
  /// Nodes in the split-off partition group (ascending index order).
  [[nodiscard]] const std::vector<net::NodeIndex>& partitioned()
      const noexcept {
    return partitioned_;
  }

 private:
  std::vector<NodeProfile> profiles_;
  BuilderProfile builder_{};
  std::vector<net::NodeIndex> churners_;
  std::array<std::uint32_t, kBehaviorCount> counts_{};
  std::vector<LinkProfile> links_;
  std::vector<net::NodeIndex> partitioned_;
  bool any_link_fault_ = false;
};

}  // namespace pandas::fault
