#include "fault/fault.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/prng.h"

namespace pandas::fault {

const char* behavior_name(Behavior b) noexcept {
  switch (b) {
    case Behavior::kCorrect: return "correct";
    case Behavior::kFailSilent: return "fail_silent";
    case Behavior::kByzantineCorrupt: return "byzantine_corrupt";
    case Behavior::kSelectiveWithhold: return "selective_withhold";
    case Behavior::kMuteFreeRider: return "mute_freerider";
    case Behavior::kStraggler: return "straggler";
    case Behavior::kChurn: return "churn";
  }
  return "unknown";
}

int FaultConfig::behavior_overflow() const noexcept {
  const double fractions[] = {dead_fraction,      byzantine_fraction,
                              withhold_fraction,  freerider_fraction,
                              straggler_fraction, churn_fraction};
  double sum = 0;
  for (int k = 0; k < 6; ++k) {
    sum += fractions[k];
    // Slack for decimal rounding: 0.34 + 0.56 + 0.1 adds up to 1 + 2^-52.
    if (sum > 1.0 + 1e-9) return k;
  }
  return -1;
}

FaultPlan FaultPlan::generate(const FaultConfig& cfg, std::uint32_t nodes,
                              std::uint64_t fallback_seed) {
  for (const double f :
       {cfg.dead_fraction, cfg.byzantine_fraction, cfg.withhold_fraction,
        cfg.freerider_fraction, cfg.straggler_fraction, cfg.churn_fraction,
        cfg.partition_fraction, cfg.flap_fraction, cfg.burst_fraction,
        cfg.bw_collapse_fraction}) {
    if (!(f >= 0.0 && f <= 1.0)) {
      throw std::invalid_argument("FaultPlan: fraction outside [0, 1]");
    }
  }
  if (cfg.behavior_overflow() >= 0) {
    throw std::invalid_argument("FaultPlan: behavior fractions sum above 1");
  }

  FaultPlan plan;
  plan.profiles_.assign(nodes, NodeProfile{});
  plan.builder_ = cfg.builder;
  plan.counts_[static_cast<std::size_t>(Behavior::kCorrect)] = nodes;
  if (nodes == 0 || (!cfg.any_node_fault() && !cfg.any_link_fault())) {
    return plan;
  }

  const std::uint64_t seed = cfg.seed != 0 ? cfg.seed : fallback_seed;

  const auto chunk = [&](double fraction) {
    return static_cast<std::uint32_t>(fraction * static_cast<double>(nodes));
  };

  if (cfg.any_link_fault()) {
    // Link-state membership uses its own RNG stream and independent shuffles
    // per axis: the sets are orthogonal to the behavior draw below (which
    // stays bit-identical whether or not link chaos is on) and may overlap
    // each other and any node behavior.
    util::Xoshiro256 lrng(util::mix64(seed ^ 0x6c696e6bULL /* "link" */));
    plan.links_.assign(nodes, LinkProfile{});
    plan.any_link_fault_ = true;
    std::vector<net::NodeIndex> lorder(nodes);
    const auto draw_axis = [&](double fraction, auto&& apply) {
      const std::uint32_t count = chunk(fraction);
      if (count == 0) return;
      std::iota(lorder.begin(), lorder.end(), 0u);
      lrng.shuffle(lorder);
      for (std::uint32_t i = 0; i < count && i < nodes; ++i) {
        apply(plan.links_[lorder[i]]);
      }
    };
    draw_axis(cfg.partition_fraction,
              [](LinkProfile& l) { l.partitioned = true; });
    draw_axis(cfg.flap_fraction, [&](LinkProfile& l) {
      l.flap = true;
      l.flap_phase = cfg.flap_period > 0
                         ? static_cast<sim::Time>(lrng.uniform(
                               static_cast<std::uint64_t>(cfg.flap_period)))
                         : 0;
    });
    draw_axis(cfg.burst_fraction, [](LinkProfile& l) { l.burst = true; });
    draw_axis(cfg.bw_collapse_fraction,
              [](LinkProfile& l) { l.bw_collapse = true; });
    for (net::NodeIndex i = 0; i < nodes; ++i) {
      if (plan.links_[i].partitioned) plan.partitioned_.push_back(i);
    }
  }

  if (!cfg.any_node_fault()) return plan;
  util::Xoshiro256 rng(util::mix64(seed ^ 0x6661756c74ULL /* "fault" */));

  // One shuffled order; the fault sets are consecutive disjoint chunks, so a
  // node never carries two behaviors and the draw is a pure function of
  // (config fractions, seed).
  std::vector<net::NodeIndex> order(nodes);
  std::iota(order.begin(), order.end(), 0u);
  rng.shuffle(order);

  struct Draw {
    Behavior behavior;
    std::uint32_t count;
  };
  const Draw draws[] = {
      {Behavior::kFailSilent, chunk(cfg.dead_fraction)},
      {Behavior::kByzantineCorrupt, chunk(cfg.byzantine_fraction)},
      {Behavior::kSelectiveWithhold, chunk(cfg.withhold_fraction)},
      {Behavior::kMuteFreeRider, chunk(cfg.freerider_fraction)},
      {Behavior::kStraggler, chunk(cfg.straggler_fraction)},
      {Behavior::kChurn, chunk(cfg.churn_fraction)},
  };

  std::size_t next = 0;
  for (const auto& draw : draws) {
    for (std::uint32_t i = 0; i < draw.count && next < order.size();
         ++i, ++next) {
      NodeProfile& p = plan.profiles_[order[next]];
      p.behavior = draw.behavior;
      switch (draw.behavior) {
        case Behavior::kByzantineCorrupt:
          p.corrupt_rate = cfg.corrupt_rate;
          break;
        case Behavior::kSelectiveWithhold:
          p.withhold_serve_cap = cfg.withhold_serve_cap;
          break;
        case Behavior::kStraggler:
          p.service_delay = cfg.straggler_delay;
          break;
        case Behavior::kChurn:
          p.churn_offset = cfg.churn_window > 0
                               ? static_cast<sim::Time>(rng.uniform(
                                     static_cast<std::uint64_t>(cfg.churn_window)))
                               : 0;
          p.churn_downtime = cfg.churn_downtime;
          break;
        default:
          break;
      }
      auto& taken = plan.counts_[static_cast<std::size_t>(draw.behavior)];
      ++taken;
      --plan.counts_[static_cast<std::size_t>(Behavior::kCorrect)];
    }
  }

  for (net::NodeIndex i = 0; i < nodes; ++i) {
    if (plan.profiles_[i].behavior == Behavior::kChurn) {
      plan.churners_.push_back(i);
    }
  }
  return plan;
}

}  // namespace pandas::fault
