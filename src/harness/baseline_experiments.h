#pragma once

#include <memory>
#include <vector>

#include "baselines/dht_das.h"
#include "baselines/gossip_das.h"
#include "harness/experiment.h"

/// Harnesses for the two baseline systems of §8.1: GossipSub-based DAS and
/// Kademlia-DHT-based DAS. Both receive the same builder egress budget as
/// PANDAS's redundant policy for a fair comparison.
namespace pandas::harness {

/// Aggregates shared by both baselines (and comparable to PandasResults).
struct BaselineResults {
  util::Samples custody_ms;    ///< unit/custody completion (gossip only)
  util::Samples sampling_ms;
  util::Samples messages;      ///< per node-slot, transport-level, sent+recv
  util::Samples traffic_mb;    ///< per node-slot, transport-level bytes
  std::uint64_t sampling_misses = 0;
  std::uint64_t records = 0;

  [[nodiscard]] double deadline_fraction(double deadline_ms = 4000.0) const {
    if (records == 0) return 0.0;
    const double met = sampling_ms.fraction_below(deadline_ms) *
                       static_cast<double>(sampling_ms.count());
    return met / static_cast<double>(records);
  }
};

struct GossipDasConfig {
  NetworkConfig net{};
  core::ProtocolParams params{};
  std::uint32_t slots = 10;
};

class GossipDasExperiment {
 public:
  explicit GossipDasExperiment(GossipDasConfig cfg);
  ~GossipDasExperiment();
  BaselineResults run();

  [[nodiscard]] sim::Engine& engine() { return net_.engine().shard(0); }
  [[nodiscard]] sim::ParallelEngine& parallel_engine() { return net_.engine(); }
  [[nodiscard]] baselines::GossipDasNode& node(net::NodeIndex i) {
    return *nodes_[i];
  }

 private:
  void setup();
  void run_slot(std::uint64_t slot, BaselineResults& out);

  GossipDasConfig cfg_;
  util::Xoshiro256 harness_rng_;
  SimNetwork net_;  // before the nodes, which hold references into it
  net::Directory directory_;
  std::unique_ptr<core::AssignmentTable> assignment_;  // unit-based
  std::vector<std::uint32_t> unit_of_;
  core::View full_view_;
  std::vector<std::unique_ptr<baselines::GossipDasNode>> nodes_;
};

struct DhtDasConfig {
  NetworkConfig net{};
  core::ProtocolParams params{};
  std::uint32_t slots = 10;
};

class DhtDasExperiment {
 public:
  explicit DhtDasExperiment(DhtDasConfig cfg);
  ~DhtDasExperiment();
  BaselineResults run();

  [[nodiscard]] sim::Engine& engine() { return net_.engine().shard(0); }
  [[nodiscard]] sim::ParallelEngine& parallel_engine() { return net_.engine(); }
  [[nodiscard]] baselines::DhtDasNode& node(net::NodeIndex i) {
    return *nodes_[i];
  }

 private:
  void setup();
  void run_slot(std::uint64_t slot, BaselineResults& out);

  DhtDasConfig cfg_;
  util::Xoshiro256 harness_rng_;
  SimNetwork net_;  // before the nodes, which hold references into it
  net::Directory directory_;  // nodes + builder
  std::vector<std::unique_ptr<baselines::DhtDasNode>> nodes_;
  std::unique_ptr<baselines::DhtDasBuilder> builder_;
};

}  // namespace pandas::harness
