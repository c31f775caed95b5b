#include "harness/experiment.h"

#include <algorithm>
#include <string>

#include "core/assignment.h"
#include "obs/json.h"

namespace pandas::harness {

namespace {
constexpr std::uint64_t kBlockTopic = 0xb10cULL;
/// The builder runs in the cloud: its vertex is drawn from the
/// best-connected 20 % of the topology (§4.1).
constexpr double kBuilderBestFraction = 0.2;
/// Payload of the block the proposer gossips alongside seeding: 128 KiB.
constexpr std::uint32_t kBlockBytes = 128 * 1024;
}  // namespace

SimNetwork::SimNetwork(const NetworkConfig& cfg,
                       util::Xoshiro256& placement_rng)
    : engine_(cfg.seed, cfg.sim_threads),
      topology_(sim::Topology::generate(cfg.topology, cfg.seed)),
      transport_(engine_, topology_, cfg.transport) {
  // Safe-window length: no message crosses nodes faster than the topology's
  // minimum one-way delay (plus >= 1 µs of serialization on top).
  engine_.set_lookahead(topology_.min_owd());
  for (std::uint32_t i = 0; i < cfg.nodes; ++i) {
    transport_.add_node(static_cast<std::uint32_t>(
        placement_rng.uniform(topology_.vertex_count())));
  }
  // The builder lives on a well-connected (cloud) vertex.
  const auto best = topology_.best_vertices(kBuilderBestFraction);
  builder_index_ =
      transport_.add_node(best[placement_rng.uniform(best.size())],
                          net::kBuilderLinkBps, net::kBuilderLinkBps);
}

PandasExperiment::PandasExperiment(PandasConfig cfg)
    : cfg_(std::move(cfg)),
      harness_rng_(util::mix64(cfg_.net.seed ^ 0x6861726eULL)),
      net_(cfg_.net, harness_rng_),
      directory_(net::Directory::create(cfg_.net.nodes)),
      registry_(cfg_.obs.metrics) {
  setup();
}

PandasExperiment::~PandasExperiment() = default;

void PandasExperiment::setup() {
  const std::uint32_t n = cfg_.net.nodes;
  sim::ParallelEngine& engine = net_.engine();
  net::SimTransport& transport = net_.transport();
  const net::NodeIndex builder_index = net_.builder_index();

  // Epoch 0 assignment (slots of one run stay within one epoch; the
  // short-liveness of F across epochs is covered by unit tests).
  assignment_ = std::make_unique<core::AssignmentTable>(
      cfg_.params, directory_, core::epoch_seed(cfg_.net.seed, 0));

  // Views: full by default; independent random subsets for the
  // out-of-view-fault scenario (builder keeps a full view, §8.2).
  views_.resize(n);
  builder_view_ = core::View::full(n);

  // Fault plan: one behavior profile per node, drawn deterministically from
  // the fault config and the run seed.
  const fault::FaultConfig& faults = cfg_.faults;
  fault_plan_ = fault::FaultPlan::generate(faults, n, cfg_.net.seed);

  dead_.assign(n, false);
  faulty_.assign(n, false);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto& profile = fault_plan_.of(i);
    faulty_[i] = profile.faulty();
    switch (profile.behavior) {
      case fault::Behavior::kFailSilent:
        dead_[i] = true;
        transport.set_dead(i, true);
        break;
      case fault::Behavior::kStraggler:
        transport.set_extra_delay(i, profile.service_delay);
        break;
      default:
        break;  // byzantine/withhold/freerider act in the node; churn per slot
    }
  }

  // Link-state chaos: translate the plan's orthogonal link profiles into
  // transport LinkChaos entries. The builder (index n) stays clear, so a
  // partition never cuts the seed path at the source. Windows (partition,
  // bandwidth collapse) are armed per slot in run_slot().
  if (fault_plan_.any_link_fault()) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto& l = fault_plan_.link_of(i);
      if (!l.any()) continue;
      net::LinkChaos c;
      c.partition_group = l.partitioned ? 1 : 0;
      c.flap = l.flap;
      c.flap_period = faults.flap_period;
      c.flap_down = faults.flap_down;
      c.flap_phase = l.flap_phase;
      c.burst = l.burst;
      c.ge_p_enter = faults.ge_p_enter;
      c.ge_p_exit = faults.ge_p_exit;
      c.ge_loss_bad = faults.ge_loss_bad;
      c.bw_collapse = l.bw_collapse;
      c.bw_factor = faults.bw_factor;
      transport.set_link_chaos(i, c);
    }
  }

  nodes_.reserve(n);
  block_arrival_.assign(n, -1);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (cfg_.out_of_view_fraction > 0.0) {
      views_[i] = core::View::random_subset(n, 1.0 - cfg_.out_of_view_fraction,
                                            harness_rng_, i);
    } else {
      views_[i] = core::View::full(n);
    }
    auto node = std::make_unique<core::PandasNode>(engine.engine_for(i),
                                                   transport, i, cfg_.params);
    node->configure_epoch(assignment_.get());
    node->set_view(&views_[i]);
    node->set_fault_profile(&fault_plan_.of(i));
    // Topology RTT prior for the per-peer RTO estimators (core/rtt.h): a
    // pure function of (self vertex, peer vertex), so it is callable from
    // any shard. All add_node() calls precede this loop, so vertex_of is
    // stable for the node's lifetime.
    node->set_rtt_prior(
        [tp = &transport, topo = &net_.topology(),
         self_vertex = transport.vertex_of(i)](net::NodeIndex peer) {
          return topo->rtt_ms(self_vertex, tp->vertex_of(peer));
        });
    nodes_.push_back(std::move(node));
  }

  // Block-dissemination GossipSub channel (one global topic, §2).
  if (cfg_.block_gossip) {
    gossip_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      auto g = std::make_unique<gossip::GossipSubNode>(engine.engine_for(i),
                                                       transport, i);
      // Each node knows ~24 random peers on the block topic.
      const std::uint32_t peers = std::min<std::uint32_t>(24, n - 1);
      const auto picks = harness_rng_.sample_distinct(n, peers + 1);
      for (const auto p : picks) {
        if (p != i) g->add_topic_peer(kBlockTopic, p);
      }
      // The callback runs on node i's home shard mid-window, where only
      // that shard's clock is current.
      sim::Engine* eng = &engine.engine_for(i);
      g->set_delivery_callback(
          [this, i, eng](net::NodeIndex, const net::GossipDataMsg& msg) {
            if (msg.topic == kBlockTopic && block_arrival_[i] < 0) {
              block_arrival_[i] = eng->now();
            }
          });
      gossip_.push_back(std::move(g));
    }
    for (auto& g : gossip_) {
      g->subscribe(kBlockTopic);
      g->start_heartbeat();
    }
  }

  // Message dispatch.
  for (std::uint32_t i = 0; i < n; ++i) {
    transport.set_handler(i, [this, i](net::NodeIndex from, net::Message&& msg) {
      if (nodes_[i]->handle_message(from, msg)) return;
      if (cfg_.block_gossip) gossip_[i]->handle(from, msg);
    });
  }

  builder_ = std::make_unique<core::Builder>(engine.engine_for(builder_index),
                                             transport, builder_index,
                                             cfg_.params);
  builder_->set_fault(&fault_plan_.builder());

  // Observability wiring: per-actor sinks (nullptr when disabled or outside
  // the sample) and opt-in engine profiling. A trace seed of 0 inherits the
  // experiment seed so the sampled set is a pure function of cfg.net.seed.
  auto tcfg = cfg_.obs.trace;
  if (tcfg.seed == 0) tcfg.seed = cfg_.net.seed;
  tracer_ = obs::Tracer(tcfg, n + 1);
  if (tracer_.enabled()) {
    for (std::uint32_t i = 0; i < n; ++i) {
      tracer_.set_actor_label(i, "node " + std::to_string(i));
      nodes_[i]->set_trace(tracer_.sink(i));
    }
    tracer_.set_actor_label(builder_index, "builder");
    builder_->set_trace(tracer_.sink(builder_index));
    transport.set_tracer(&tracer_);
  }
  // Causal provenance sinks (attribution and/or flow arrows). Unlike trace
  // sampling this is all-or-nothing: the attribution criterion covers every
  // correct node. --trace-flows implies collection.
  const bool causal_on = cfg_.obs.causal || cfg_.obs.trace_flows;
  causal_ = obs::CausalTracer(causal_on, n + 1, cfg_.obs.trace_flows);
  if (causal_.enabled()) {
    for (std::uint32_t i = 0; i < n; ++i) {
      nodes_[i]->set_causal(causal_.sink(i));
    }
  }
  engine.set_profiling(cfg_.obs.metrics);

  // Warm-up: let the gossip meshes stabilize before the first slot.
  if (cfg_.block_gossip) {
    engine.run_until(engine.now() + 3 * sim::kSecond);
  }
}

void PandasExperiment::maybe_rotate_epoch(std::uint64_t slot) {
  const std::uint64_t epoch = slot / sim::kSlotsPerEpoch;
  if (epoch == current_epoch_ && assignment_ != nullptr) return;
  current_epoch_ = epoch;
  assignment_ = std::make_unique<core::AssignmentTable>(
      cfg_.params, directory_, core::epoch_seed(cfg_.net.seed, epoch));
  for (auto& node : nodes_) node->configure_epoch(assignment_.get());
}

core::Builder::SeedingReport PandasExperiment::run_slot(std::uint64_t slot,
                                                        PandasResults& out) {
  const sim::Time slot_start = net_.engine().now();
  const std::uint32_t n = cfg_.net.nodes;
  maybe_rotate_epoch(slot);

  for (std::uint32_t i = 0; i < n; ++i) {
    nodes_[i]->begin_slot(slot);
    block_arrival_[i] = -1;
  }

  // Churn: each churner goes dark mid-slot at its drawn offset and comes
  // back `churn_downtime` later (same offsets every slot — the draw is part
  // of the plan, so the run stays a pure function of the seed).
  for (const auto c : fault_plan_.churners()) {
    const auto& profile = fault_plan_.of(c);
    // Churn toggles touch node c's link state, so they run on c's home
    // shard, tagged with c's ordering lane (layout-invariant key timeline).
    sim::Engine* eng = &net_.engine().engine_for(c);
    eng->schedule_as(sim::Engine::lane_of_actor(c),
                     slot_start + profile.churn_offset, [this, c, eng]() {
                       net_.transport().set_dead(c, true);
                       obs::emit(tracer_.sink(c), obs::EventType::kChurnLeave,
                                 eng->now());
                     });
    eng->schedule_as(sim::Engine::lane_of_actor(c),
                     slot_start + profile.churn_offset + profile.churn_downtime,
                     [this, c, eng]() {
                       net_.transport().set_dead(c, false);
                       obs::emit(tracer_.sink(c), obs::EventType::kChurnJoin,
                                 eng->now());
                     });
  }

  // Link-state chaos windows (driver phase only: every shard clock is
  // synced here, so window mutation is layout-invariant). One partition
  // split + heal and one bandwidth-collapse dip per slot.
  if (fault_plan_.any_link_fault()) {
    const auto& lf = cfg_.faults;
    if (lf.partition_fraction > 0 && !fault_plan_.partitioned().empty()) {
      const sim::Time pstart = slot_start + lf.partition_offset;
      const sim::Time pend = pstart + lf.partition_heal;
      net_.transport().set_partition_window(pstart, pend);
      partition_heals_ += 1;
      out.partition_heals += 1;
      if (tracer_.enabled()) {
        // Heal marker per partitioned node, on its own shard + ordering lane
        // (same pattern as the churn toggles above).
        for (const auto p : fault_plan_.partitioned()) {
          sim::Engine* eng = &net_.engine().engine_for(p);
          eng->schedule_as(sim::Engine::lane_of_actor(p), pend,
                           [this, p, eng, heal = lf.partition_heal]() {
                             obs::emit(tracer_.sink(p),
                                       obs::EventType::kPartitionHeal,
                                       eng->now(), obs::kNoPeer,
                                       static_cast<std::int64_t>(
                                           sim::to_ms(heal)));
                           });
        }
      }
    }
    if (lf.bw_collapse_fraction > 0) {
      net_.transport().set_bw_window(slot_start + lf.bw_offset,
                                slot_start + lf.bw_offset + lf.bw_duration);
    }
  }

  // The proposer (a random node) publishes the block over gossip while the
  // builder concurrently seeds blob cells (Fig 4/5).
  if (cfg_.block_gossip) {
    std::uint32_t proposer;
    do {
      proposer = static_cast<std::uint32_t>(harness_rng_.uniform(n));
    } while (dead_[proposer]);
    net::GossipDataMsg block;
    block.topic = kBlockTopic;
    block.msg_id = util::mix64(0xb10c0000ULL + slot);
    block.slot = slot;
    block.extra_bytes = kBlockBytes;
    block_arrival_[proposer] = slot_start;
    gossip_[proposer]->publish(std::move(block));
  }

  auto plan = core::plan_seeding(cfg_.params, *assignment_, builder_view_,
                                 cfg_.policy, harness_rng_);
  if (fault_plan_.builder().withhold_threshold) {
    // Threshold withholding (§4.1): the builder never releases the last
    // parity column, so no row can reach k distinct cells and every sample
    // drawn on the withheld columns is unobtainable. The boost map is left
    // untouched — an adversarial builder lies about availability for free.
    const std::uint16_t cutoff = cfg_.params.matrix_k - 1;
    for (auto& cells : plan.cells_per_node) {
      std::erase_if(cells,
                    [cutoff](const net::CellId& c) { return c.col >= cutoff; });
    }
  }
  const auto report =
      builder_->seed(slot, *assignment_, builder_view_, plan, harness_rng_);

  net_.engine().run_until(slot_start + cfg_.slot_duration);

  // Collect per-node records (correct nodes only; faulty nodes — dead,
  // byzantine, withholding, … — are not part of the population whose
  // completion the paper reports).
  for (std::uint32_t i = 0; i < n; ++i) {
    if (faulty_[i]) continue;
    const auto& rec = nodes_[i]->record();
    out.records += 1;
    out.cells_corrupt_rejected += rec.cells_corrupt_rejected;
    out.cells_corrupt_accepted += rec.cells_corrupt_accepted;
    if (rec.seed_time) out.seed_ms.add(sim::to_ms(*rec.seed_time));
    if (rec.consolidation_time) {
      out.consolidation_ms.add(sim::to_ms(*rec.consolidation_time));
      if (rec.seed_time) {
        out.consolidation_from_seed_ms.add(
            sim::to_ms(*rec.consolidation_time - *rec.seed_time));
      }
    } else {
      out.consolidation_misses += 1;
    }
    if (rec.sampling_time) {
      out.sampling_ms.add(sim::to_ms(*rec.sampling_time));
    } else {
      out.sampling_misses += 1;
    }
    out.fetch_messages.add(static_cast<double>(rec.fetch_messages));
    out.fetch_mb.add(static_cast<double>(rec.fetch_bytes) / 1e6);
    out.seed_cells.add(static_cast<double>(rec.seed_cells));
    if (cfg_.block_gossip && block_arrival_[i] >= 0) {
      out.block_ms.add(sim::to_ms(block_arrival_[i] - slot_start));
    }

    // Per-round fetch telemetry (Table 1).
    const auto* fetcher = nodes_[i]->fetcher();
    if (fetcher != nullptr) {
      out.rto_expirations += fetcher->rto_expirations();
      out.hedges_sent += fetcher->hedges_sent();
      out.hedge_wins += fetcher->hedge_wins();
    }
    if (fetcher != nullptr && fetcher->initial_outstanding() > 0) {
      const auto& rounds = fetcher->round_stats();
      const auto baseline = static_cast<double>(fetcher->initial_outstanding());
      if (out.rounds.size() < rounds.size()) out.rounds.resize(rounds.size());
      for (std::size_t r = 0; r < rounds.size(); ++r) {
        auto& agg = out.rounds[r];
        const auto& st = rounds[r];
        agg.messages.add(st.messages_sent);
        agg.requested.add(st.cells_requested);
        agg.replies_in.add(st.replies_in_round);
        agg.replies_after.add(st.replies_after_round);
        agg.cells_in.add(st.cells_in_round);
        agg.cells_after.add(st.cells_after_round);
        agg.duplicates.add(st.duplicates);
        agg.reconstructed.add(st.reconstructed);
        agg.coverage_pct.add(
            100.0 * (1.0 - static_cast<double>(st.remaining_after) / baseline));
      }
    }

    // Slot-end causal walk: per-category deadline attribution (must run
    // before the next begin_slot() resets the sink).
    if (causal_.enabled()) {
      if (const auto* sink = causal_.sink(i); sink != nullptr) {
        auto a = obs::attribute(sink->slot_data(),
                                slot_start + cfg_.slot_duration);
        a.node = i;
        attribution_agg_.add(a);
        attributions_.push_back(a);
      }
    }
  }
  collect_obs(slot_start);
  return report;
}

void PandasExperiment::collect_obs(sim::Time slot_start) {
  const bool tracing = tracer_.enabled();
  const bool metrics = registry_.enabled();
  const bool recording = cfg_.obs.collect_records;
  if (!tracing && !metrics && !recording) return;

  // Per-round sums accumulated over this slot's nodes, folded into the
  // registry's per-round counter families once per slot.
  struct RoundSums {
    std::uint64_t messages = 0, requested = 0, replies_in = 0,
                  replies_after = 0, cells_in = 0, cells_after = 0,
                  duplicates = 0, reconstructed = 0;
  };
  std::vector<RoundSums> sums;
  std::uint64_t seed_cells = 0, fetch_messages = 0, fetch_bytes = 0;
  std::uint64_t cons_misses = 0, samp_misses = 0, n_records = 0;
  std::uint64_t corrupt_rejected = 0, corrupt_accepted = 0;
  std::uint64_t rto_exp = 0, hedges = 0, hwins = 0;

  util::Histogram& h_seed =
      registry_.histogram("phase_ms", obs::label("phase", "seeding"));
  util::Histogram& h_cons =
      registry_.histogram("phase_ms", obs::label("phase", "consolidation"));
  util::Histogram& h_samp =
      registry_.histogram("phase_ms", obs::label("phase", "sampling"));

  const std::uint32_t n = cfg_.net.nodes;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (faulty_[i]) continue;
    const auto& rec = nodes_[i]->record();
    const auto* fetcher = nodes_[i]->fetcher();

    if (tracing) {
      // Sequential phase spans per node track: seeding ends at the first
      // seed, consolidation and sampling at their completion instants
      // (clamped forward so spans never overlap on the track).
      if (auto* sink = tracer_.sink(i); sink != nullptr) {
        sim::Time cursor = slot_start;
        if (rec.seed_time) {
          const sim::Time end = slot_start + *rec.seed_time;
          sink->span(obs::EventType::kPhaseSeeding, cursor, end,
                     rec.seed_cells);
          cursor = end;
        }
        if (rec.consolidation_time) {
          const sim::Time end =
              std::max(cursor, slot_start + *rec.consolidation_time);
          sink->span(obs::EventType::kPhaseConsolidation, cursor, end);
          cursor = end;
        }
        if (rec.sampling_time) {
          const sim::Time end =
              std::max(cursor, slot_start + *rec.sampling_time);
          sink->span(obs::EventType::kPhaseSampling, cursor, end);
        }
      }
    }

    if (recording) {
      NodeSlotRecord r;
      r.node = i;
      r.rec = rec;
      if (fetcher != nullptr) {
        r.initial_outstanding = fetcher->initial_outstanding();
        r.rounds = fetcher->round_stats();
        r.rto_expirations = fetcher->rto_expirations();
        r.hedges_sent = fetcher->hedges_sent();
        r.hedge_wins = fetcher->hedge_wins();
      }
      records_.push_back(std::move(r));
    }

    if (metrics) {
      n_records += 1;
      if (rec.seed_time) h_seed.add(sim::to_ms(*rec.seed_time));
      if (rec.consolidation_time) {
        h_cons.add(sim::to_ms(*rec.consolidation_time));
      } else {
        cons_misses += 1;
      }
      if (rec.sampling_time) {
        h_samp.add(sim::to_ms(*rec.sampling_time));
      } else {
        samp_misses += 1;
      }
      seed_cells += rec.seed_cells;
      fetch_messages += rec.fetch_messages;
      fetch_bytes += rec.fetch_bytes;
      corrupt_rejected += rec.cells_corrupt_rejected;
      corrupt_accepted += rec.cells_corrupt_accepted;
      if (fetcher != nullptr) {
        rto_exp += fetcher->rto_expirations();
        hedges += fetcher->hedges_sent();
        hwins += fetcher->hedge_wins();
      }
      if (fetcher != nullptr) {
        const auto& rounds = fetcher->round_stats();
        if (sums.size() < rounds.size()) sums.resize(rounds.size());
        for (std::size_t r = 0; r < rounds.size(); ++r) {
          const auto& st = rounds[r];
          sums[r].messages += st.messages_sent;
          sums[r].requested += st.cells_requested;
          sums[r].replies_in += st.replies_in_round;
          sums[r].replies_after += st.replies_after_round;
          sums[r].cells_in += st.cells_in_round;
          sums[r].cells_after += st.cells_after_round;
          sums[r].duplicates += st.duplicates;
          sums[r].reconstructed += st.reconstructed;
        }
      }
    }
  }

  if (metrics) {
    registry_.counter("node_slots").inc(n_records);
    registry_.counter("consolidation_misses").inc(cons_misses);
    registry_.counter("sampling_misses").inc(samp_misses);
    registry_.counter("seed_cells").inc(seed_cells);
    registry_.counter("fetch_traffic_messages").inc(fetch_messages);
    registry_.counter("fetch_traffic_bytes").inc(fetch_bytes);
    registry_.counter("cells_corrupt_rejected").inc(corrupt_rejected);
    registry_.counter("cells_corrupt_accepted").inc(corrupt_accepted);
    // Registered only with hedging on, so the metrics dump of a
    // hedging-off run stays byte-identical to pre-hedging builds.
    if (cfg_.params.hedging) {
      registry_.counter("fetch_rto_expirations").inc(rto_exp);
      registry_.counter("fetch_hedges_sent").inc(hedges);
      registry_.counter("fetch_hedge_wins").inc(hwins);
    }
    for (std::size_t r = 0; r < sums.size(); ++r) {
      const auto lbl = obs::label("round", static_cast<std::uint64_t>(r + 1));
      registry_.counter("fetch_messages", lbl).inc(sums[r].messages);
      registry_.counter("fetch_cells_requested", lbl).inc(sums[r].requested);
      registry_.counter("fetch_replies_in", lbl).inc(sums[r].replies_in);
      registry_.counter("fetch_replies_after", lbl).inc(sums[r].replies_after);
      registry_.counter("fetch_cells_received", lbl).inc(sums[r].cells_in);
      registry_.counter("fetch_cells_after", lbl).inc(sums[r].cells_after);
      registry_.counter("fetch_duplicates", lbl).inc(sums[r].duplicates);
      registry_.counter("fetch_reconstructed", lbl).inc(sums[r].reconstructed);
    }
  }
}

void PandasExperiment::collect_run_metrics() {
  if (!registry_.enabled()) return;
  const sim::ParallelEngine& engine = net_.engine();
  // Gauges (idempotent set) so mid-run snapshots and the final export agree.
  registry_.gauge("engine_events_executed")
      .set(static_cast<double>(engine.executed()));
  if (cfg_.obs.wall_metrics) {
    // Wall time is not a function of the seed, and the scheduler/queue
    // gauges below depend on the shard layout (--sim-threads); exporting
    // them is an explicit opt-out of the byte-identical metrics guarantee.
    const auto prof = engine.merged_profile();
    registry_.gauge("engine_peak_queue_depth")
        .set(static_cast<double>(prof.peak_queue_depth));
    registry_.gauge("engine_wall_seconds").set(prof.wall_seconds);
    registry_.gauge("engine_wall_per_sim_second")
        .set(prof.wall_per_sim_second());
    registry_.gauge("engine_events_per_sec").set(prof.events_per_wall_second());
    registry_.gauge("engine_scheduler_allocs")
        .set(static_cast<double>(engine.scheduler_allocs()));
    registry_.gauge("engine_event_capacity")
        .set(static_cast<double>(engine.event_capacity()));
    registry_.gauge("engine_threads")
        .set(static_cast<double>(engine.shards()));
    const auto& ws = engine.window_stats();
    registry_.gauge("engine_windows").set(static_cast<double>(ws.windows));
    registry_.gauge("engine_lane_events")
        .set(static_cast<double>(ws.lane_events));
  }
  // Monotone event-loss counter (was a gauge; counters survive registry
  // merges and make "did we ever drop?" a plain >0 check). Mid-run calls
  // fold in only the delta since the previous collection.
  const std::uint64_t dropped = tracer_.total_dropped();
  registry_.counter("trace_events_dropped").inc(dropped - trace_dropped_counted_);
  trace_dropped_counted_ = dropped;

  // Reputation outcomes on correct nodes (lifetime counters, hence gauges).
  std::uint64_t greylists = 0, timeouts = 0, corrupt_peers = 0;
  for (std::uint32_t i = 0; i < cfg_.net.nodes; ++i) {
    if (faulty_[i]) continue;
    const auto& rep = nodes_[i]->reputation();
    greylists += rep.greylist_events();
    timeouts += rep.timeout_events();
    corrupt_peers += rep.corrupt_events();
  }
  registry_.gauge("peers_greylisted").set(static_cast<double>(greylists));
  registry_.gauge("fetch_peer_timeouts").set(static_cast<double>(timeouts));
  registry_.gauge("fetch_corrupt_replies").set(static_cast<double>(corrupt_peers));
  if (fault_plan_.any_link_fault()) {
    registry_.gauge("partition_heals")
        .set(static_cast<double>(partition_heals_));
  }

  const auto totals = net_.transport().typed_totals();
  for (std::size_t c = 0; c < net::kMsgClassCount; ++c) {
    const auto lbl = obs::label(
        "class", net::msg_class_name(static_cast<net::MsgClass>(c)));
    const auto& t = totals.by_class[c];
    registry_.gauge("transport_msgs_sent", lbl)
        .set(static_cast<double>(t.msgs_sent));
    registry_.gauge("transport_msgs_received", lbl)
        .set(static_cast<double>(t.msgs_received));
    registry_.gauge("transport_bytes_sent", lbl)
        .set(static_cast<double>(t.bytes_sent));
    registry_.gauge("transport_bytes_received", lbl)
        .set(static_cast<double>(t.bytes_received));
    registry_.gauge("transport_msgs_lost", lbl)
        .set(static_cast<double>(t.msgs_lost));
    registry_.gauge("transport_cells_lost", lbl)
        .set(static_cast<double>(t.cells_lost));
    registry_.gauge("transport_msgs_to_dead", lbl)
        .set(static_cast<double>(t.msgs_to_dead));
  }
}

void PandasExperiment::write_records_jsonl(std::FILE* out) const {
  for (const auto& r : records_) {
    obs::JsonWriter w(out);
    w.begin_object();
    w.kv("slot", r.rec.slot);
    w.kv("node", r.node);
    if (r.rec.seed_time) w.kv("seed_ms", sim::to_ms(*r.rec.seed_time));
    if (r.rec.consolidation_time) {
      w.kv("consolidation_ms", sim::to_ms(*r.rec.consolidation_time));
    }
    if (r.rec.sampling_time) {
      w.kv("sampling_ms", sim::to_ms(*r.rec.sampling_time));
    }
    w.kv("seed_cells", r.rec.seed_cells);
    w.kv("fetch_messages", r.rec.fetch_messages);
    w.kv("fetch_bytes", r.rec.fetch_bytes);
    if (r.rec.cells_corrupt_rejected > 0) {
      w.kv("cells_corrupt_rejected", r.rec.cells_corrupt_rejected);
    }
    if (r.rec.cells_corrupt_accepted > 0) {
      w.kv("cells_corrupt_accepted", r.rec.cells_corrupt_accepted);
    }
    // Hedging fields appear only when non-zero: a hedging-off run's record
    // stream is byte-identical to pre-hedging builds.
    if (r.rto_expirations > 0) w.kv("rto_expirations", r.rto_expirations);
    if (r.hedges_sent > 0) w.kv("hedges_sent", r.hedges_sent);
    if (r.hedge_wins > 0) w.kv("hedge_wins", r.hedge_wins);
    w.kv("initial_outstanding", r.initial_outstanding);
    w.key("rounds");
    w.begin_array();
    for (std::size_t i = 0; i < r.rounds.size(); ++i) {
      const auto& st = r.rounds[i];
      w.begin_object();
      w.kv("round", static_cast<std::uint64_t>(i + 1));
      w.kv("messages", st.messages_sent);
      w.kv("requested", st.cells_requested);
      w.kv("replies_in", st.replies_in_round);
      w.kv("replies_after", st.replies_after_round);
      w.kv("cells_in", st.cells_in_round);
      w.kv("cells_after", st.cells_after_round);
      w.kv("duplicates", st.duplicates);
      w.kv("reconstructed", st.reconstructed);
      w.kv("remaining_after", st.remaining_after);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    w.newline();
  }
}

void PandasExperiment::write_attribution_jsonl(std::FILE* out) const {
  for (const auto& a : attributions_) {
    obs::JsonWriter w(out);
    w.begin_object();
    w.kv("slot", a.slot);
    w.kv("node", a.node);
    w.kv("completed", a.completed);
    w.kv("elapsed_ms", sim::to_ms(a.elapsed));
    w.kv("dominant", obs::category_name(a.dominant));
    w.key("categories_ms");
    w.begin_object();
    for (std::size_t c = 0; c < obs::kCategoryCount; ++c) {
      w.kv(obs::category_name(static_cast<obs::Category>(c)),
           sim::to_ms(a.by_category[c]));
    }
    w.end_object();
    if (a.has_path) {
      w.key("path");
      w.begin_object();
      w.kv("kind", obs::flow_kind_name(a.path_kind));
      w.kv("server", a.path_server);
      w.kv("round", a.path_round);
      w.kv("redraw", a.path_redraw);
      w.end_object();
    }
    w.end_object();
    w.newline();
  }
}

PandasResults PandasExperiment::run() {
  PandasResults out;
  double builder_bytes = 0;
  double builder_msgs = 0;
  for (std::uint32_t s = 0; s < cfg_.slots; ++s) {
    const auto report = run_slot(s, out);
    builder_bytes += static_cast<double>(report.bytes);
    builder_msgs += static_cast<double>(report.messages);
    if (registry_.enabled()) {
      registry_.counter("builder_seed_messages").inc(report.messages);
      registry_.counter("builder_seed_cell_copies").inc(report.cell_copies);
      registry_.counter("builder_seed_bytes").inc(report.bytes);
    }
  }
  out.builder_bytes_per_slot = builder_bytes / cfg_.slots;
  out.builder_msgs_per_slot = builder_msgs / cfg_.slots;
  // Reputation counters are lifetime (they persist across slots by design),
  // so sum them once at the end rather than per slot.
  for (std::uint32_t i = 0; i < cfg_.net.nodes; ++i) {
    if (faulty_[i]) continue;
    const auto& rep = nodes_[i]->reputation();
    out.peers_greylisted += rep.greylist_events();
    out.fetch_peer_timeouts += rep.timeout_events();
  }
  collect_run_metrics();
  return out;
}

}  // namespace pandas::harness
