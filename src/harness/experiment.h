#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include <cstdio>

#include "core/builder.h"
#include "core/node.h"
#include "core/seeding.h"
#include "fault/fault.h"
#include "gossip/gossipsub.h"
#include "net/directory.h"
#include "net/sim_transport.h"
#include "obs/attribution.h"
#include "obs/causal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/parallel_engine.h"
#include "sim/topology.h"
#include "util/stats.h"

/// Experiment harness: builds a simulated network (topology + transport +
/// directory + assignment), runs slot cycles of the protocol under test, and
/// aggregates the per-node phase timings / traffic statistics reported in
/// the paper's evaluation (§8).
namespace pandas::harness {

struct NetworkConfig {
  std::uint32_t nodes = 1000;
  std::uint64_t seed = 42;
  sim::TopologyConfig topology{};        // defaults: 10,000 vertices
  net::SimTransportConfig transport{};   // defaults: 3% loss, 25 Mbps nodes
  double builder_up_bps = 10e9;          // medium cloud instance (§4.1)
  double builder_down_bps = 10e9;
  /// Worker shards for the parallel engine (--sim-threads). 1 (default) runs
  /// the classic serial engine; any value produces byte-identical exports
  /// (docs/SIMULATION.md "Parallel execution").
  std::uint32_t sim_threads = 1;
};

/// Largest `sim_threads` the command-line tools accept: every shard beyond
/// the first is an OS thread.
inline constexpr std::uint32_t kMaxSimThreads = 64;

/// The simulated network every experiment runs on (§8.1): the sharded
/// engine, the latency topology, the transport over both, `nodes` node
/// vertices and one builder on a well-connected vertex. PANDAS and both
/// baselines construct their network here, so the three are built alike.
///
/// Placement draws from the caller's RNG in a fixed order: one vertex per
/// node (reusing vertices when the network outgrows the topology, as the
/// paper does for N > 10,000), then the builder's vertex. Neither copyable
/// nor movable: the transport and the components built on it keep
/// references to the engine and the topology.
class SimNetwork {
 public:
  SimNetwork(const NetworkConfig& cfg, util::Xoshiro256& placement_rng);
  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  [[nodiscard]] sim::ParallelEngine& engine() noexcept { return engine_; }
  [[nodiscard]] const sim::Topology& topology() const noexcept {
    return topology_;
  }
  [[nodiscard]] net::SimTransport& transport() noexcept { return transport_; }
  /// Transport index of the builder (= cfg.nodes).
  [[nodiscard]] net::NodeIndex builder_index() const noexcept {
    return builder_index_;
  }

 private:
  sim::ParallelEngine engine_;
  sim::Topology topology_;
  net::SimTransport transport_;
  net::NodeIndex builder_index_ = net::kInvalidNode;
};

/// Observability switches, shared by PANDAS and baseline harnesses. All off
/// by default: a run without exporters carries no tracing pointers, no
/// registry entries and no engine clock reads.
struct ObsConfig {
  /// Trace-event collection (per-actor TraceSink wiring + Chrome export).
  /// `trace.seed` of 0 inherits the experiment seed, keeping the sampled
  /// actor set — and hence the exported files — a pure function of the seed.
  obs::TraceConfig trace{};
  /// Fill the metrics registry at collection points + engine profiling.
  bool metrics = false;
  /// Also export wall-clock engine gauges (engine_wall_seconds,
  /// engine_wall_per_sim_second). Off by default because wall time is not a
  /// function of the seed, and the default metrics dump guarantees
  /// same-seed => byte-identical output.
  bool wall_metrics = false;
  /// Keep per-(node, slot) records for the JSONL exporter.
  bool collect_records = false;
  /// Causal provenance collection (obs/causal.h): per-node CausalSinks plus
  /// the slot-end attribution walk. O(1) memory per node-slot.
  bool causal = false;
  /// Additionally retain every delivery record so the Chrome trace gets
  /// Perfetto flow arrows (implies `causal`; memory grows with traffic).
  bool trace_flows = false;
};

struct PandasConfig {
  NetworkConfig net{};
  core::ProtocolParams params{};
  core::SeedingPolicy policy = core::SeedingPolicy::redundant(8);
  std::uint32_t slots = 10;
  /// Adversarial fault injection (src/fault, docs/FAULTS.md): behavior
  /// fractions (fail-silent `dead_fraction` is Fig 15a), per-behavior knobs,
  /// and builder misbehavior. The plan is drawn deterministically from
  /// (faults, seed) at setup.
  fault::FaultConfig faults{};
  /// Fraction of the network *missing* from each node's view (Fig 15b);
  /// 0.2 means every node sees a random 80% of the network.
  double out_of_view_fraction = 0.0;
  /// Run the block-dissemination GossipSub channel alongside (Fig 9a).
  bool block_gossip = true;
  /// Simulated time between slot starts; phases must finish well within it.
  sim::Time slot_duration = sim::kSlotDuration;
  ObsConfig obs{};
};

/// One JSONL export record: everything measured about one (node, slot).
struct NodeSlotRecord {
  std::uint32_t node = 0;
  core::PandasNode::SlotRecord rec{};
  std::uint64_t initial_outstanding = 0;
  std::vector<core::FetchRoundStats> rounds;
  /// Hedging telemetry (zero unless params.hedging; exported only when > 0
  /// so hedging-off record streams stay byte-identical).
  std::uint32_t rto_expirations = 0;
  std::uint32_t hedges_sent = 0;
  std::uint32_t hedge_wins = 0;
};

/// Aggregates over all (correct node, slot) pairs.
struct PandasResults {
  util::Samples seed_ms;                    // Fig 9a
  util::Samples consolidation_from_seed_ms; // Fig 9b
  util::Samples consolidation_ms;           // Fig 9c
  util::Samples sampling_ms;                // Fig 9d
  util::Samples block_ms;                   // Fig 9a (gossip comparison)
  util::Samples fetch_messages;             // Fig 10 / 13b
  util::Samples fetch_mb;                   // Fig 10 / 13c
  util::Samples seed_cells;                 // Table 1 ("cells received")
  /// Node-slots that never finished within the slot (counted as misses).
  std::uint64_t consolidation_misses = 0;
  std::uint64_t sampling_misses = 0;
  std::uint64_t records = 0;

  /// Defensive-hardening totals over correct node-slots. A hardened run
  /// keeps `cells_corrupt_accepted` at exactly zero no matter the adversary.
  std::uint64_t cells_corrupt_rejected = 0;
  std::uint64_t cells_corrupt_accepted = 0;
  /// Reputation outcomes summed over correct nodes (whole run).
  std::uint64_t peers_greylisted = 0;
  std::uint64_t fetch_peer_timeouts = 0;
  /// Hedging telemetry over correct node-slots (core/rtt.h; zero with
  /// params.hedging off) and link-chaos heal count (one per slot whose
  /// partition window closed; zero without --partition).
  std::uint64_t rto_expirations = 0;
  std::uint64_t hedges_sent = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t partition_heals = 0;

  /// Per-fetch-round aggregation (Table 1): sample sets over nodes.
  struct RoundAgg {
    util::Samples messages, requested, replies_in, replies_after, cells_in,
        cells_after, duplicates, reconstructed, coverage_pct;
  };
  std::vector<RoundAgg> rounds;

  /// Builder-side totals (per slot averages).
  double builder_bytes_per_slot = 0;
  double builder_msgs_per_slot = 0;

  /// Fraction of correct node-slots whose sampling met the 4 s deadline.
  [[nodiscard]] double deadline_fraction(double deadline_ms = 4000.0) const {
    if (records == 0) return 0.0;
    const double met =
        sampling_ms.fraction_below(deadline_ms) *
        static_cast<double>(sampling_ms.count());
    return met / static_cast<double>(records);
  }
};

/// Runs PANDAS (§6-§7) over the simulated network.
class PandasExperiment {
 public:
  explicit PandasExperiment(PandasConfig cfg);
  ~PandasExperiment();

  /// Runs the configured number of slots and returns the aggregates.
  PandasResults run();

  /// Access for white-box tests. engine() is shard 0 — with the default
  /// sim_threads = 1 that is the only engine, and its clock is authoritative
  /// between windows in any layout.
  [[nodiscard]] sim::Engine& engine() { return net_.engine().shard(0); }
  [[nodiscard]] sim::ParallelEngine& parallel_engine() { return net_.engine(); }
  [[nodiscard]] net::SimTransport& transport() { return net_.transport(); }
  [[nodiscard]] core::PandasNode& node(net::NodeIndex i) { return *nodes_[i]; }
  [[nodiscard]] net::NodeIndex builder_index() const {
    return net_.builder_index();
  }
  [[nodiscard]] const core::AssignmentTable& assignment() const {
    return *assignment_;
  }
  /// The deterministic per-node behavior draw for this run.
  [[nodiscard]] const fault::FaultPlan& fault_plan() const {
    return fault_plan_;
  }

  /// Runs a single slot starting at the current engine time; exposed so
  /// tests can interleave custom events. Returns per-slot builder report.
  core::Builder::SeedingReport run_slot(std::uint64_t slot, PandasResults& out);

  /// Observability surface. The tracer holds per-actor sinks (empty when
  /// tracing is off); the registry is filled at collection points when
  /// cfg.obs.metrics is set.
  [[nodiscard]] obs::Tracer& tracer() { return tracer_; }
  [[nodiscard]] obs::Registry& registry() { return registry_; }
  [[nodiscard]] const std::vector<NodeSlotRecord>& node_slot_records() const {
    return records_;
  }

  /// Causal layer (empty/disabled unless cfg.obs.causal): the tracer holding
  /// per-actor provenance sinks, the per-(correct node, slot) attribution
  /// walks, and their aggregate for the deadline-contributors table.
  [[nodiscard]] const obs::CausalTracer& causal() const { return causal_; }
  [[nodiscard]] const std::vector<obs::NodeAttribution>& attributions() const {
    return attributions_;
  }
  [[nodiscard]] const obs::AttributionAgg& attribution_agg() const {
    return attribution_agg_;
  }

  /// JSONL export: one attribution record per (correct node, slot), with
  /// per-category milliseconds that sum exactly to `elapsed_ms`. Requires
  /// cfg.obs.causal.
  void write_attribution_jsonl(std::FILE* out) const;

  /// Engine / transport / trace gauges sampled "now" — called by run() at
  /// the end, and callable mid-run for snapshots. No-op without metrics.
  void collect_run_metrics();

  /// JSONL export: one record per (node, slot), deterministic field order.
  /// Requires cfg.obs.collect_records.
  void write_records_jsonl(std::FILE* out) const;

 private:
  void setup();
  void collect_obs(sim::Time slot_start);

  PandasConfig cfg_;
  util::Xoshiro256 harness_rng_;
  /// Declared before every component holding references into it.
  SimNetwork net_;
  net::Directory directory_;
  std::unique_ptr<core::AssignmentTable> assignment_;
  std::vector<core::View> views_;
  std::vector<std::unique_ptr<core::PandasNode>> nodes_;
  std::vector<std::unique_ptr<gossip::GossipSubNode>> gossip_;
  std::vector<bool> dead_;
  /// Any non-correct behavior: excluded from the measured population.
  std::vector<bool> faulty_;
  fault::FaultPlan fault_plan_;
  std::unique_ptr<core::Builder> builder_;
  core::View builder_view_;
  std::vector<sim::Time> block_arrival_;  // per node, per current slot
  std::uint64_t current_epoch_ = 0;
  obs::Tracer tracer_;
  obs::Registry registry_;
  std::vector<NodeSlotRecord> records_;
  obs::CausalTracer causal_;
  std::vector<obs::NodeAttribution> attributions_;
  obs::AttributionAgg attribution_agg_;
  /// Drops already folded into the trace_events_dropped counter, so mid-run
  /// collect_run_metrics() calls increment by the delta only.
  std::uint64_t trace_dropped_counted_ = 0;
  /// Partition windows closed so far (one per slot with --partition on).
  std::uint64_t partition_heals_ = 0;

  /// Rebuilds the assignment table when `slot` crosses an epoch boundary
  /// (F is short-lived, §5) and points every node at the new table.
  void maybe_rotate_epoch(std::uint64_t slot);
};

}  // namespace pandas::harness
