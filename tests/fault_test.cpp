#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "core/reputation.h"
#include "fault/fault.h"
#include "harness/experiment.h"

namespace pandas {
namespace {

/// Fault-injection subsystem + defensive hardening (docs/FAULTS.md): plan
/// determinism, reputation mechanics, and end-to-end adversarial runs on the
/// reduced integration matrix.

harness::PandasConfig small_config() {
  harness::PandasConfig cfg;
  cfg.net.nodes = 120;
  cfg.net.seed = 5;
  cfg.net.topology.vertices = 500;
  cfg.params.matrix_k = 32;
  cfg.params.matrix_n = 64;
  cfg.params.rows_per_node = 4;
  cfg.params.cols_per_node = 4;
  cfg.params.samples_per_node = 20;
  cfg.slots = 1;
  cfg.block_gossip = false;
  return cfg;
}

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlan, DeterministicForSameConfigAndSeed) {
  fault::FaultConfig cfg;
  cfg.byzantine_fraction = 0.2;
  cfg.churn_fraction = 0.1;
  const auto a = fault::FaultPlan::generate(cfg, 200, 42);
  const auto b = fault::FaultPlan::generate(cfg, 200, 42);
  for (net::NodeIndex i = 0; i < 200; ++i) {
    EXPECT_EQ(a.of(i).behavior, b.of(i).behavior) << "node " << i;
    EXPECT_EQ(a.of(i).churn_offset, b.of(i).churn_offset);
  }
  EXPECT_EQ(a.churners(), b.churners());
}

TEST(FaultPlan, RejectsFractionsOutsideZeroOne) {
  const auto generate = [](auto&& set) {
    fault::FaultConfig cfg;
    set(cfg);
    return fault::FaultPlan::generate(cfg, 100, 1);
  };
  EXPECT_THROW(generate([](auto& c) { c.dead_fraction = -0.1; }),
               std::invalid_argument);
  EXPECT_THROW(generate([](auto& c) { c.churn_fraction = 1.5; }),
               std::invalid_argument);
  EXPECT_THROW(generate([](auto& c) { c.partition_fraction = -1.0; }),
               std::invalid_argument);
  EXPECT_THROW(generate([](auto& c) { c.bw_collapse_fraction = 2.0; }),
               std::invalid_argument);
  EXPECT_THROW(generate([](auto& c) {
                 c.straggler_fraction = std::numeric_limits<double>::quiet_NaN();
               }),
               std::invalid_argument);
}

TEST(FaultPlan, RejectsBehaviorFractionsSummingAboveOne) {
  fault::FaultConfig cfg;
  cfg.dead_fraction = 0.6;
  cfg.byzantine_fraction = 0.5;
  EXPECT_EQ(cfg.behavior_overflow(), 1);
  EXPECT_THROW((void)fault::FaultPlan::generate(cfg, 100, 1),
               std::invalid_argument);
  // Exactly 1 (up to decimal rounding) is allowed and leaves no correct node.
  cfg.dead_fraction = 0.34;
  cfg.byzantine_fraction = 0.56;
  cfg.withhold_fraction = 0.1;
  EXPECT_EQ(cfg.behavior_overflow(), -1);
  const auto plan = fault::FaultPlan::generate(cfg, 100, 1);
  EXPECT_EQ(plan.faulty_count(), 100u);
}

TEST(FaultPlan, DedicatedSeedOverridesExperimentSeed) {
  fault::FaultConfig cfg;
  cfg.dead_fraction = 0.3;
  cfg.seed = 7;
  const auto a = fault::FaultPlan::generate(cfg, 200, 1);
  const auto b = fault::FaultPlan::generate(cfg, 200, 2);
  for (net::NodeIndex i = 0; i < 200; ++i) {
    EXPECT_EQ(a.of(i).behavior, b.of(i).behavior);
  }
  // And a different dedicated seed redraws the set.
  cfg.seed = 8;
  const auto c = fault::FaultPlan::generate(cfg, 200, 1);
  bool any_differs = false;
  for (net::NodeIndex i = 0; i < 200; ++i) {
    any_differs |= a.of(i).behavior != c.of(i).behavior;
  }
  EXPECT_TRUE(any_differs);
}

TEST(FaultPlan, FractionsDrawDisjointExactChunks) {
  fault::FaultConfig cfg;
  cfg.dead_fraction = 0.1;
  cfg.byzantine_fraction = 0.2;
  cfg.withhold_fraction = 0.05;
  cfg.freerider_fraction = 0.05;
  cfg.straggler_fraction = 0.1;
  cfg.churn_fraction = 0.1;
  const auto plan = fault::FaultPlan::generate(cfg, 1000, 42);
  EXPECT_EQ(plan.count(fault::Behavior::kFailSilent), 100u);
  EXPECT_EQ(plan.count(fault::Behavior::kByzantineCorrupt), 200u);
  EXPECT_EQ(plan.count(fault::Behavior::kSelectiveWithhold), 50u);
  EXPECT_EQ(plan.count(fault::Behavior::kMuteFreeRider), 50u);
  EXPECT_EQ(plan.count(fault::Behavior::kStraggler), 100u);
  EXPECT_EQ(plan.count(fault::Behavior::kChurn), 100u);
  EXPECT_EQ(plan.count(fault::Behavior::kCorrect), 400u);
  EXPECT_EQ(plan.faulty_count(), 600u);
  // A node holds exactly one behavior by construction; cross-check the
  // counts against a full scan.
  std::uint32_t faulty = 0;
  for (net::NodeIndex i = 0; i < 1000; ++i) faulty += plan.is_faulty(i);
  EXPECT_EQ(faulty, 600u);
}

TEST(FaultPlan, ChurnOffsetsFallInWindow) {
  fault::FaultConfig cfg;
  cfg.churn_fraction = 0.2;
  cfg.churn_window = 2 * sim::kSecond;
  cfg.churn_downtime = 1 * sim::kSecond;
  const auto plan = fault::FaultPlan::generate(cfg, 300, 9);
  ASSERT_EQ(plan.churners().size(), 60u);
  for (const auto c : plan.churners()) {
    const auto& p = plan.of(c);
    EXPECT_EQ(p.behavior, fault::Behavior::kChurn);
    EXPECT_GE(p.churn_offset, 0);
    EXPECT_LT(p.churn_offset, cfg.churn_window);
    EXPECT_EQ(p.churn_downtime, cfg.churn_downtime);
  }
}

TEST(FaultPlan, DefaultPlanIsAllCorrect) {
  const fault::FaultPlan plan;
  EXPECT_FALSE(plan.is_faulty(0));
  EXPECT_FALSE(plan.builder().faulty());
  const auto generated =
      fault::FaultPlan::generate(fault::FaultConfig{}, 100, 42);
  EXPECT_EQ(generated.faulty_count(), 0u);
}

TEST(FaultPlan, LinkChaosDrawIsDeterministicAndExact) {
  fault::FaultConfig cfg;
  cfg.partition_fraction = 0.1;
  cfg.flap_fraction = 0.1;
  cfg.burst_fraction = 0.1;
  cfg.bw_collapse_fraction = 0.1;
  const auto a = fault::FaultPlan::generate(cfg, 400, 42);
  const auto b = fault::FaultPlan::generate(cfg, 400, 42);
  ASSERT_TRUE(a.any_link_fault());
  std::uint32_t partitioned = 0, flapping = 0, bursty = 0, collapsed = 0;
  for (net::NodeIndex i = 0; i < 400; ++i) {
    const auto& la = a.link_of(i);
    const auto& lb = b.link_of(i);
    EXPECT_EQ(la.partitioned, lb.partitioned) << "node " << i;
    EXPECT_EQ(la.flap, lb.flap);
    EXPECT_EQ(la.flap_phase, lb.flap_phase);
    EXPECT_EQ(la.burst, lb.burst);
    EXPECT_EQ(la.bw_collapse, lb.bw_collapse);
    partitioned += la.partitioned;
    flapping += la.flap;
    bursty += la.burst;
    collapsed += la.bw_collapse;
    if (la.flap) {
      EXPECT_GE(la.flap_phase, 0);
      EXPECT_LT(la.flap_phase, cfg.flap_period);
    }
  }
  // Each axis draws its exact chunk, independently of the others.
  EXPECT_EQ(partitioned, 40u);
  EXPECT_EQ(flapping, 40u);
  EXPECT_EQ(bursty, 40u);
  EXPECT_EQ(collapsed, 40u);
  EXPECT_EQ(a.partitioned(), b.partitioned());
  ASSERT_EQ(a.partitioned().size(), 40u);
  for (const auto p : a.partitioned()) EXPECT_TRUE(a.link_of(p).partitioned);
  // Link chaos is not a node behavior: the measured population is untouched.
  EXPECT_EQ(a.faulty_count(), 0u);
}

TEST(FaultPlan, LinkAxesDoNotPerturbBehaviorDraw) {
  // The link draw runs on its own RNG stream: switching chaos on must leave
  // the behavior assignment bit-identical (the soak harness and the fig
  // exports rely on this orthogonality).
  fault::FaultConfig plain;
  plain.byzantine_fraction = 0.2;
  plain.churn_fraction = 0.1;
  fault::FaultConfig chaotic = plain;
  chaotic.partition_fraction = 0.1;
  chaotic.burst_fraction = 0.2;
  const auto a = fault::FaultPlan::generate(plain, 300, 11);
  const auto b = fault::FaultPlan::generate(chaotic, 300, 11);
  for (net::NodeIndex i = 0; i < 300; ++i) {
    EXPECT_EQ(a.of(i).behavior, b.of(i).behavior) << "node " << i;
    EXPECT_EQ(a.of(i).churn_offset, b.of(i).churn_offset);
  }
  EXPECT_FALSE(a.any_link_fault());
  EXPECT_TRUE(b.any_link_fault());
  // Orthogonal draws may overlap: a node can churn AND sit partitioned.
  EXPECT_EQ(b.count(fault::Behavior::kChurn), 30u);
}

// ----------------------------------------------------------- PeerReputation

TEST(PeerReputation, CorruptReplyGreylistsOutright) {
  core::PeerReputation rep;  // corrupt +8 == threshold 8: one strike
  EXPECT_DOUBLE_EQ(rep.weight(7), 1.0);
  EXPECT_FALSE(rep.greylisted(7, sim::kSecond));
  // Proof forgery is never an accident: the first forged reply greylists.
  EXPECT_TRUE(rep.record_corrupt(7, sim::kSecond));
  EXPECT_TRUE(rep.greylisted(7, sim::kSecond));
  EXPECT_LT(rep.weight(7), 1.0);
  EXPECT_EQ(rep.greylist_events(), 1u);
  // Term expiry is lazy and halves the penalty (forgiveness, not amnesty);
  // the next forgery re-greylists immediately.
  const sim::Time after = sim::kSecond + core::kRepGreylistDuration;
  EXPECT_FALSE(rep.greylisted(7, after));
  EXPECT_DOUBLE_EQ(rep.penalty(7), 4.0);
  EXPECT_TRUE(rep.record_corrupt(7, after));
  EXPECT_EQ(rep.greylist_events(), 2u);
  EXPECT_EQ(rep.corrupt_events(), 2u);
}

TEST(PeerReputation, TimeoutsAreWeakAndSuccessRecovers) {
  core::PeerReputation rep;
  for (int i = 0; i < 4; ++i) rep.record_timeout(3, 0);
  EXPECT_DOUBLE_EQ(rep.penalty(3), 4 * core::kRepTimeoutPenalty);
  EXPECT_EQ(rep.timeout_events(), 4u);
  EXPECT_FALSE(rep.greylisted(3, 0));
  // A late reply redeems one charged timeout (the peer was consolidating,
  // not dead); further redemptions are capped by what was actually charged.
  rep.redeem_timeout(3);
  EXPECT_DOUBLE_EQ(rep.penalty(3), 3 * core::kRepTimeoutPenalty);
  // Useful replies work the penalty back down, floored at zero.
  for (int i = 0; i < 10; ++i) rep.record_success(3);
  EXPECT_DOUBLE_EQ(rep.penalty(3), 0.0);
  EXPECT_DOUBLE_EQ(rep.weight(3), 1.0);
  rep.redeem_timeout(3);  // charged ones remain, but penalty stays floored
  EXPECT_DOUBLE_EQ(rep.penalty(3), 0.0);
  // Unknown peers are untouched by success credit or redemption.
  rep.record_success(99);
  rep.redeem_timeout(99);
  EXPECT_DOUBLE_EQ(rep.penalty(99), 0.0);
}

// ------------------------------------------------------- end-to-end threats

TEST(FaultInjection, ByzantinePeersRejectedAndDeadlineStillMet) {
  auto cfg = small_config();
  cfg.faults.byzantine_fraction = 0.2;
  harness::PandasExperiment exp(cfg);
  const auto res = exp.run();
  // 24 byzantine nodes are excluded from the measured population.
  EXPECT_EQ(res.records, 96u);
  // The adversary was exercised and defeated: forged cells were seen,
  // rejected at the door, and none entered custody.
  EXPECT_GT(res.cells_corrupt_rejected, 0u);
  EXPECT_EQ(res.cells_corrupt_accepted, 0u);
  // The correct population still finishes in time.
  EXPECT_EQ(res.sampling_misses, 0u);
  EXPECT_DOUBLE_EQ(res.deadline_fraction(), 1.0);
}

TEST(FaultInjection, VerificationOffAcceptsForgeries) {
  // The control arm: with hardening disabled the same adversary lands
  // corrupt cells in custody — proving the counter measures, not the
  // adversary, keep the accepted count at zero.
  auto cfg = small_config();
  cfg.faults.byzantine_fraction = 0.2;
  cfg.params.verify_cells = false;
  harness::PandasExperiment exp(cfg);
  const auto res = exp.run();
  EXPECT_GT(res.cells_corrupt_accepted, 0u);
  EXPECT_EQ(res.cells_corrupt_rejected, 0u);
}

TEST(FaultInjection, RepeatOffendersGetGreylisted) {
  auto cfg = small_config();
  cfg.faults.byzantine_fraction = 0.3;
  cfg.slots = 3;  // reputation persists across slots; forgeries accumulate
  harness::PandasExperiment exp(cfg);
  const auto res = exp.run();
  EXPECT_GT(res.peers_greylisted, 0u);
  EXPECT_EQ(res.cells_corrupt_accepted, 0u);
}

TEST(FaultInjection, CorruptBuilderYieldsZeroAttestations) {
  auto cfg = small_config();
  cfg.faults.builder.corrupt = true;
  harness::PandasExperiment exp(cfg);
  const auto res = exp.run();
  // Every seeded cell carries a forged proof: nothing enters custody,
  // nothing is servable, and no node may attest availability.
  EXPECT_EQ(res.records, 120u);
  EXPECT_EQ(res.sampling_misses, res.records);
  EXPECT_GT(res.cells_corrupt_rejected, 0u);
  EXPECT_EQ(res.cells_corrupt_accepted, 0u);
}

TEST(FaultInjection, ThresholdWithholdingBuilderStopsSampling) {
  auto cfg = small_config();
  cfg.faults.builder.withhold_threshold = true;
  harness::PandasExperiment exp(cfg);
  const auto res = exp.run();
  // Only k-1 distinct columns ever leave the builder: no row can reach the
  // decode threshold, so the withheld columns are unobtainable and sampling
  // fails network-wide (the paper's unavailability guarantee, §4.1).
  EXPECT_EQ(res.sampling_misses, res.records);
  EXPECT_EQ(res.cells_corrupt_accepted, 0u);
}

TEST(FaultInjection, MixedAdversaryCocktailSmoke) {
  auto cfg = small_config();
  cfg.faults.dead_fraction = 0.05;
  cfg.faults.byzantine_fraction = 0.05;
  cfg.faults.withhold_fraction = 0.05;
  cfg.faults.freerider_fraction = 0.05;
  cfg.faults.straggler_fraction = 0.05;
  cfg.faults.churn_fraction = 0.05;
  harness::PandasExperiment exp(cfg);
  EXPECT_EQ(exp.fault_plan().faulty_count(), 36u);
  const auto res = exp.run();
  EXPECT_EQ(res.records, 84u);
  EXPECT_EQ(res.cells_corrupt_accepted, 0u);
  // A 30% composite adversary degrades but does not break the protocol.
  EXPECT_GT(res.deadline_fraction(), 0.8);
}

TEST(FaultInjection, FaultRunsStayDeterministic) {
  auto cfg = small_config();
  cfg.faults.byzantine_fraction = 0.2;
  cfg.faults.churn_fraction = 0.1;
  const auto a = harness::PandasExperiment(cfg).run();
  const auto b = harness::PandasExperiment(cfg).run();
  ASSERT_EQ(a.sampling_ms.count(), b.sampling_ms.count());
  EXPECT_DOUBLE_EQ(a.sampling_ms.mean(), b.sampling_ms.mean());
  EXPECT_EQ(a.cells_corrupt_rejected, b.cells_corrupt_rejected);
  EXPECT_EQ(a.peers_greylisted, b.peers_greylisted);
}

TEST(FaultInjection, PartitionHealsAndHedgedSamplingStillCompletes) {
  auto cfg = small_config();
  cfg.faults.partition_fraction = 0.1;
  cfg.faults.partition_heal = 1 * sim::kSecond;
  cfg.params.hedging = true;
  harness::PandasExperiment exp(cfg);
  const auto res = exp.run();
  // The partition window opened and healed once (one slot)...
  EXPECT_EQ(res.partition_heals, 1u);
  // ...silent partitioned peers tripped RTO timers and hedged duplicates...
  EXPECT_GT(res.rto_expirations, 0u);
  EXPECT_GT(res.hedges_sent, 0u);
  // ...and with the heal at 1 s, sampling still overwhelmingly completes
  // inside the 4 s deadline (at this reduced scale the partitioned tenth
  // itself is the worst case).
  EXPECT_GE(res.deadline_fraction(), 0.9);
  EXPECT_EQ(res.cells_corrupt_accepted, 0u);
}

TEST(FaultInjection, GilbertElliottBurstsDegradeButDoNotBreak) {
  auto cfg = small_config();
  cfg.faults.burst_fraction = 0.3;
  cfg.faults.ge_loss_bad = 0.5;
  cfg.params.hedging = true;
  harness::PandasExperiment exp(cfg);
  const auto res = exp.run();
  EXPECT_EQ(res.records, 120u);  // link chaos excludes nobody
  EXPECT_GT(res.deadline_fraction(), 0.8);
  EXPECT_EQ(res.cells_corrupt_accepted, 0u);
}

TEST(FaultInjection, LinkChaosRunsStayDeterministicAcrossShardCounts) {
  // The chaos windows mutate transport state only in the synchronized
  // driver phase and the GE chains hang off per-sender streams, so a
  // chaotic, hedged run must not depend on the shard layout.
  auto cfg = small_config();
  cfg.faults.partition_fraction = 0.1;
  cfg.faults.burst_fraction = 0.2;
  cfg.faults.churn_fraction = 0.1;
  cfg.params.hedging = true;
  cfg.net.sim_threads = 1;
  const auto a = harness::PandasExperiment(cfg).run();
  cfg.net.sim_threads = 2;
  const auto b = harness::PandasExperiment(cfg).run();
  ASSERT_EQ(a.sampling_ms.count(), b.sampling_ms.count());
  EXPECT_DOUBLE_EQ(a.sampling_ms.mean(), b.sampling_ms.mean());
  EXPECT_EQ(a.sampling_misses, b.sampling_misses);
  EXPECT_EQ(a.rto_expirations, b.rto_expirations);
  EXPECT_EQ(a.hedges_sent, b.hedges_sent);
  EXPECT_EQ(a.hedge_wins, b.hedge_wins);
  EXPECT_EQ(a.partition_heals, b.partition_heals);
}

// ------------------------------------------------------ property invariants

TEST(FaultProperty, RaisingDeadFractionNeverImprovesDeadlineFraction) {
  // Fixed seed; more crashed nodes can only hurt: the deadline-met fraction
  // over the correct population is non-increasing in dead_fraction.
  double previous = 2.0;
  for (const double f : {0.0, 0.2, 0.4}) {
    auto cfg = small_config();
    cfg.faults.dead_fraction = f;
    harness::PandasExperiment exp(cfg);
    const auto res = exp.run();
    EXPECT_LE(res.deadline_fraction(), previous) << "dead_fraction=" << f;
    previous = res.deadline_fraction();
  }
}

TEST(FaultProperty, AttestationImpliesEverySampleHeld) {
  // Under every fault mix, a correct node that claims successful sampling
  // must actually hold all of its sample cells — the attestation invariant
  // that makes DAS sound.
  for (const double f : {0.0, 0.2, 0.4}) {
    auto cfg = small_config();
    cfg.faults.dead_fraction = f / 2;
    cfg.faults.byzantine_fraction = f / 2;
    harness::PandasExperiment exp(cfg);
    harness::PandasResults res;
    exp.run_slot(0, res);
    for (std::uint32_t i = 0; i < cfg.net.nodes; ++i) {
      if (exp.fault_plan().is_faulty(i)) continue;
      const auto& node = exp.node(i);
      if (!node.sampled()) continue;
      for (const auto cell : node.samples()) {
        EXPECT_TRUE(node.custody().has_cell(cell))
            << "node " << i << " attested without holding (" << cell.row
            << "," << cell.col << ") at dead/byz=" << f;
      }
    }
  }
}

}  // namespace
}  // namespace pandas
