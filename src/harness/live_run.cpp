#include "harness/live_run.h"

#include <memory>
#include <vector>

#include "core/assignment.h"
#include "core/builder.h"
#include "core/node.h"
#include "core/view.h"
#include "net/directory.h"
#include "net/sim_transport.h"
#include "net/udp_transport.h"
#include "sim/engine.h"
#include "sim/topology.h"
#include "util/prng.h"

namespace pandas::harness {

namespace {

/// The slot both twins run, seeded with the redundant(4) policy.
constexpr std::uint64_t kSlot = 1;

/// Identical protocol wiring for both backends: same directory-derived
/// assignment, same full view, and the same plan/dispatch RNG seed, so the
/// builder's per-node cell plan is byte-for-byte the twin's plan.
struct SlotFixture {
  net::Directory directory;
  core::AssignmentTable table;
  core::View view;

  SlotFixture(const LiveRunConfig& cfg)
      : directory(net::Directory::create(cfg.nodes)),
        table(cfg.params, directory, core::epoch_seed(cfg.seed, 0)),
        view(core::View::full(cfg.nodes)) {}
};

/// Wires one PandasNode per endpoint, runs the seeding + slot, and measures
/// the outcome from the node states and the transport's typed counters.
template <typename Transport, typename RunFn>
SlotOutcome run_slot(const LiveRunConfig& cfg, const SlotFixture& fix,
                     sim::Engine& engine, Transport& transport,
                     net::NodeIndex builder_index, RunFn&& run) {
  std::vector<std::unique_ptr<core::PandasNode>> nodes;
  nodes.reserve(cfg.nodes);
  for (std::uint32_t i = 0; i < cfg.nodes; ++i) {
    auto node =
        std::make_unique<core::PandasNode>(engine, transport, i, cfg.params);
    node->configure_epoch(&fix.table);
    node->set_view(&fix.view);
    nodes.push_back(std::move(node));
    transport.set_handler(i, [&nodes, i](net::NodeIndex from,
                                         net::Message&& m) {
      nodes[i]->handle_message(from, m);
    });
  }
  core::Builder builder(engine, transport, builder_index, cfg.params);

  for (auto& node : nodes) node->begin_slot(kSlot);
  util::Xoshiro256 rng(cfg.seed ^ 0x9e3779b97f4a7c15ULL);
  const auto plan = core::plan_seeding(cfg.params, fix.table, fix.view,
                                       core::SeedingPolicy::redundant(4), rng);
  builder.seed(kSlot, fix.table, fix.view, plan, rng);

  run();

  SlotOutcome out;
  out.nodes = cfg.nodes;
  for (const auto& node : nodes) {
    if (node->consolidated()) ++out.consolidated;
    if (node->sampled()) ++out.sampled;
  }
  const auto totals = transport.typed_totals();
  out.seed_cells_sent = totals.of(net::MsgClass::kSeed).cells_sent;
  out.seed_cells_received = totals.of(net::MsgClass::kSeed).cells_received;
  out.response_cells_received =
      totals.of(net::MsgClass::kResponse).cells_received;
  return out;
}

}  // namespace

LiveRunConfig LiveRunConfig::loopback_defaults() {
  LiveRunConfig cfg;
  cfg.params.matrix_k = 32;
  cfg.params.matrix_n = 64;
  cfg.params.rows_per_node = 4;
  cfg.params.cols_per_node = 4;
  cfg.params.samples_per_node = 16;
  // Loopback RTT is microseconds, not hundreds of milliseconds: shrink the
  // fetch-round schedule so retries happen within the realtime budget.
  cfg.params.first_round_timeout = 60 * sim::kMillisecond;
  cfg.params.min_round_timeout = 30 * sim::kMillisecond;
  cfg.params.consolidation_fallback = 120 * sim::kMillisecond;
  return cfg;
}

SlotOutcome run_live_slot(const LiveRunConfig& cfg) {
  const SlotFixture fix(cfg);
  sim::Engine engine(cfg.seed);
  net::UdpTransport transport(engine);
  for (std::uint32_t i = 0; i < cfg.nodes; ++i) {
    (void)transport.add_endpoint();
  }
  const auto builder_index = transport.add_endpoint();

  auto out = run_slot(cfg, fix, engine, transport, builder_index, [&] {
    engine.run_realtime(cfg.run_for,
                        [&](sim::Time w) { transport.poll(w); });
  });
  out.backend = "udp";
  out.send_failures = transport.send_failures();
  out.emsgsize_failures = transport.emsgsize_failures();
  out.decode_failures = transport.decode_failures();
  out.transport = transport_snapshot_of(transport);
  return out;
}

SlotOutcome run_sim_slot(const LiveRunConfig& cfg) {
  const SlotFixture fix(cfg);
  sim::Engine engine(cfg.seed);
  sim::TopologyConfig tcfg;
  tcfg.vertices = cfg.nodes + 1;
  const auto topology = sim::Topology::generate(tcfg, cfg.seed);
  net::SimTransportConfig scfg;
  scfg.loss_rate = 0.0;  // loopback UDP is lossless in practice
  net::SimTransport transport(engine, topology, scfg);
  for (std::uint32_t i = 0; i < cfg.nodes; ++i) {
    (void)transport.add_node(i);
  }
  const auto builder_index =
      transport.add_node(cfg.nodes, net::kBuilderLinkBps, net::kBuilderLinkBps);

  auto out = run_slot(cfg, fix, engine, transport, builder_index, [&] {
    // Virtual time is free: run far past the realtime budget so the sim twin
    // always reaches quiescence and reports its best-case completion.
    engine.run_until(engine.now() + 30 * sim::kSecond);
  });
  out.backend = "sim";
  return out;
}

ParityReport run_parity(const LiveRunConfig& cfg) {
  ParityReport report;
  report.sim = run_sim_slot(cfg);
  report.live = run_live_slot(cfg);
  return report;
}

}  // namespace pandas::harness
