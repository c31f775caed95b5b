#include "harness/baseline_experiments.h"

#include <algorithm>

namespace pandas::harness {

namespace {

/// Folds one slot of node records into `out`: custody time (for node types
/// that track it), sampling time or a miss, and each node's transport
/// messages and bytes (sent + received) since the `before` snapshot.
template <class Node>
void add_slot_records(const std::vector<std::unique_ptr<Node>>& nodes,
                      const net::SimTransport& transport,
                      const std::vector<net::TrafficStats>& before,
                      BaselineResults& out) {
  for (std::uint32_t i = 0; i < nodes.size(); ++i) {
    const auto& rec = nodes[i]->record();
    out.records += 1;
    if constexpr (requires { rec.custody_time; }) {
      if (rec.custody_time) out.custody_ms.add(sim::to_ms(*rec.custody_time));
    }
    if (rec.sampling_time) {
      out.sampling_ms.add(sim::to_ms(*rec.sampling_time));
    } else {
      out.sampling_misses += 1;
    }
    const auto& after = transport.stats(i);
    out.messages.add(static_cast<double>(after.msgs_sent - before[i].msgs_sent +
                                         after.msgs_received -
                                         before[i].msgs_received));
    out.traffic_mb.add(static_cast<double>(after.bytes_sent - before[i].bytes_sent +
                                           after.bytes_received -
                                           before[i].bytes_received) /
                       1e6);
  }
}

}  // namespace

// ---------------------------------------------------------------- GossipDas

GossipDasExperiment::GossipDasExperiment(GossipDasConfig cfg)
    : cfg_(std::move(cfg)),
      harness_rng_(util::mix64(cfg_.net.seed ^ 0x67646173ULL)),
      net_(cfg_.net, harness_rng_),
      directory_(net::Directory::create(cfg_.net.nodes)) {
  setup();
}

GossipDasExperiment::~GossipDasExperiment() = default;

void GossipDasExperiment::setup() {
  const std::uint32_t n = cfg_.net.nodes;
  auto per_node = baselines::unit_assignments(cfg_.params, directory_,
                                              core::epoch_seed(cfg_.net.seed, 0));
  // Record each node's unit (derived from its first row block).
  unit_of_.resize(n);
  const std::uint32_t units = baselines::unit_count(cfg_.params);
  for (std::uint32_t i = 0; i < n; ++i) {
    unit_of_[i] = per_node[i].rows.front() / cfg_.params.rows_per_node;
  }
  assignment_ =
      std::make_unique<core::AssignmentTable>(cfg_.params, std::move(per_node));
  full_view_ = core::View::full(n);

  nodes_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto node = std::make_unique<baselines::GossipDasNode>(
        net_.engine().engine_for(i), net_.transport(), i, cfg_.params,
        cfg_.gossip);
    node->configure(assignment_.get(), &full_view_, unit_of_[i]);
    nodes_.push_back(std::move(node));
  }

  // Wire each unit's channel: members know each other.
  std::vector<std::vector<net::NodeIndex>> channel(units);
  for (std::uint32_t i = 0; i < n; ++i) channel[unit_of_[i]].push_back(i);
  for (std::uint32_t u = 0; u < units; ++u) {
    for (const auto a : channel[u]) {
      for (const auto b : channel[u]) {
        if (a != b) nodes_[a]->gossipsub().add_topic_peer(u, b);
      }
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    nodes_[i]->gossipsub().subscribe(unit_of_[i]);
    nodes_[i]->gossipsub().start_heartbeat();
  }

  for (std::uint32_t i = 0; i < n; ++i) {
    net_.transport().set_handler(
        i, [this, i](net::NodeIndex from, net::Message&& msg) {
          nodes_[i]->handle_message(from, msg);
        });
  }

  // Warm up the meshes.
  net_.engine().run_until(net_.engine().now() + 3 * sim::kSecond);
}

void GossipDasExperiment::run_slot(std::uint64_t slot, BaselineResults& out) {
  sim::ParallelEngine& engine = net_.engine();
  net::SimTransport& transport = net_.transport();
  const sim::Time slot_start = engine.now();
  const std::uint32_t n = cfg_.net.nodes;
  const std::uint32_t units = baselines::unit_count(cfg_.params);

  for (std::uint32_t i = 0; i < n; ++i) nodes_[i]->begin_slot(slot);

  std::vector<net::TrafficStats> before(n);
  for (std::uint32_t i = 0; i < n; ++i) before[i] = transport.stats(i);

  // Builder: inject `builder_copies` copies of each unit's cells into the
  // unit channel; in-channel gossip takes it from there.
  std::vector<std::vector<net::NodeIndex>> channel(units);
  for (std::uint32_t i = 0; i < n; ++i) channel[unit_of_[i]].push_back(i);
  for (std::uint32_t u = 0; u < units; ++u) {
    if (channel[u].empty()) continue;
    const auto lines = baselines::unit_lines(cfg_.params, u);
    net::GossipDataMsg msg;
    msg.topic = u;
    msg.msg_id = util::mix64((slot << 16) ^ u ^ 0xda5da5ULL);
    msg.slot = slot;
    for (const auto line : lines.lines()) {
      for (std::uint32_t pos = 0; pos < cfg_.params.matrix_n; ++pos) {
        msg.cells.push_back(line.kind == net::LineRef::Kind::kRow
                                ? net::CellId{line.index,
                                              static_cast<std::uint16_t>(pos)}
                                : net::CellId{static_cast<std::uint16_t>(pos),
                                              line.index});
      }
    }
    std::vector<net::NodeIndex> members = channel[u];
    harness_rng_.shuffle(members);
    const auto copies =
        std::min<std::size_t>(cfg_.builder_copies, members.size());
    for (std::size_t c = 0; c < copies; ++c) {
      transport.send(net_.builder_index(), members[c], msg);
    }
  }

  engine.run_until(slot_start + sim::kSlotDuration);
  add_slot_records(nodes_, transport, before, out);
}

BaselineResults GossipDasExperiment::run() {
  BaselineResults out;
  for (std::uint32_t s = 0; s < cfg_.slots; ++s) run_slot(s, out);
  return out;
}

// ------------------------------------------------------------------- DhtDas

DhtDasExperiment::DhtDasExperiment(DhtDasConfig cfg)
    : cfg_(std::move(cfg)),
      harness_rng_(util::mix64(cfg_.net.seed ^ 0x64686173ULL)),
      net_(cfg_.net, harness_rng_),
      directory_(net::Directory::create(cfg_.net.nodes + 1)) {
  setup();
}

DhtDasExperiment::~DhtDasExperiment() = default;

void DhtDasExperiment::setup() {
  sim::ParallelEngine& engine = net_.engine();
  net::SimTransport& transport = net_.transport();
  const net::NodeIndex builder_index = net_.builder_index();
  const std::uint32_t n = cfg_.net.nodes;

  nodes_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<baselines::DhtDasNode>(
        engine.engine_for(i), transport, directory_, i, cfg_.params,
        cfg_.dht));
  }
  builder_ = std::make_unique<baselines::DhtDasBuilder>(
      engine.engine_for(builder_index), transport, directory_, builder_index,
      cfg_.params, cfg_.dht);

  // Routing-table bootstrap: the steady state of a long-running network.
  const std::uint32_t total = n + 1;
  if (total <= cfg_.full_bootstrap_limit) {
    std::vector<net::NodeIndex> all(total);
    for (std::uint32_t i = 0; i < total; ++i) all[i] = i;
    for (std::uint32_t i = 0; i < n; ++i) nodes_[i]->dht().bootstrap(all);
    builder_->dht().bootstrap(all);
  } else {
    // Random sample + id-space neighbours (shared id-prefix nodes populate
    // the deep buckets that make iterative lookups converge).
    std::vector<net::NodeIndex> by_id(total);
    for (std::uint32_t i = 0; i < total; ++i) by_id[i] = i;
    std::sort(by_id.begin(), by_id.end(),
              [&](net::NodeIndex a, net::NodeIndex b) {
                return directory_.id_of(a).bytes < directory_.id_of(b).bytes;
              });
    std::vector<std::uint32_t> pos_of(total);
    for (std::uint32_t p = 0; p < total; ++p) pos_of[by_id[p]] = p;

    auto bootstrap_one = [&](dht::KademliaNode& node, net::NodeIndex self) {
      std::vector<net::NodeIndex> contacts;
      const auto sample = harness_rng_.sample_distinct(total, 1024);
      for (const auto s : sample) contacts.push_back(s);
      const std::uint32_t p = pos_of[self];
      for (std::int64_t d = -24; d <= 24; ++d) {
        const std::int64_t q = static_cast<std::int64_t>(p) + d;
        if (q >= 0 && q < total) contacts.push_back(by_id[q]);
      }
      node.bootstrap(contacts);
    };
    for (std::uint32_t i = 0; i < n; ++i) bootstrap_one(nodes_[i]->dht(), i);
    bootstrap_one(builder_->dht(), builder_index);
  }

  for (std::uint32_t i = 0; i < n; ++i) {
    transport.set_handler(i, [this, i](net::NodeIndex from, net::Message&& msg) {
      nodes_[i]->handle_message(from, msg);
    });
  }
  transport.set_handler(builder_index,
                        [this](net::NodeIndex from, net::Message&& msg) {
                          builder_->dht().handle(from, msg);
                        });
}

void DhtDasExperiment::run_slot(std::uint64_t slot, BaselineResults& out) {
  const sim::Time slot_start = net_.engine().now();
  const std::uint32_t n = cfg_.net.nodes;

  std::vector<net::TrafficStats> before(n);
  for (std::uint32_t i = 0; i < n; ++i) before[i] = net_.transport().stats(i);

  for (std::uint32_t i = 0; i < n; ++i) nodes_[i]->begin_slot(slot);
  builder_->seed_slot(slot);
  for (std::uint32_t i = 0; i < n; ++i) nodes_[i]->start_sampling();

  net_.engine().run_until(slot_start + sim::kSlotDuration);
  add_slot_records(nodes_, net_.transport(), before, out);
}

BaselineResults DhtDasExperiment::run() {
  BaselineResults out;
  for (std::uint32_t s = 0; s < cfg_.slots; ++s) run_slot(s, out);
  return out;
}

}  // namespace pandas::harness
