#include "core/node.h"

#include <algorithm>
#include <cmath>

#include "crypto/kzg_sim.h"

namespace pandas::core {

PandasNode::PandasNode(sim::Engine& engine, net::Transport& transport,
                       net::NodeIndex self, const ProtocolParams& params)
    : engine_(engine),
      transport_(transport),
      self_(self),
      params_(params),
      sample_rng_(engine.rng_stream(0x73616d70ULL ^
                                    (static_cast<std::uint64_t>(self) << 24))),
      reputation_(params_),
      rtt_(params_.rto) {}

void PandasNode::begin_slot(std::uint64_t slot) {
  slot_ = slot;
  slot_active_ = true;
  ++slot_generation_;
  custody_ = CustodyState(params_, table_->of(self_));
  pending_.clear();
  pending_ctx_.clear();
  fallback_armed_ = false;
  seed_received_ = false;
  record_ = SlotRecord{};
  record_.slot = slot;
  record_.slot_start = engine_.now();
  cause_seq_ = 0;
  if (causal_ != nullptr) causal_->begin_slot(slot, engine_.now());

  // Unpredictable sample selection (§6.3): unlike the assignment F, the
  // samples must not be computable by third parties in advance.
  samples_.clear();
  missing_samples_.clear();
  const std::uint64_t span =
      static_cast<std::uint64_t>(params_.matrix_n) * params_.matrix_n;
  while (samples_.size() < params_.samples_per_node) {
    const auto flat = static_cast<std::uint32_t>(sample_rng_.uniform(span));
    const net::CellId cell{static_cast<std::uint16_t>(flat / params_.matrix_n),
                           static_cast<std::uint16_t>(flat % params_.matrix_n)};
    if (missing_samples_.insert(cell.packed()).second) {
      samples_.push_back(cell);
    }
  }

  fetcher_ = std::make_shared<AdaptiveFetcher>(
      engine_, params_, *table_, view_, self_,
      engine_.rng_stream(0x66657463ULL ^
                         (static_cast<std::uint64_t>(self_) << 20) ^ slot),
      params_.reputation ? &reputation_ : nullptr);
  fetcher_->set_rtt(&rtt_);
  if (last_resort_) fetcher_->set_last_resort(last_resort_);
  if (trace_ != nullptr) {
    trace_->set_slot(slot);
    fetcher_->set_trace(trace_);
  }
}

bool PandasNode::handle_message(net::NodeIndex from, net::Message& msg) {
  if (auto* seed = std::get_if<net::SeedMsg>(&msg)) {
    if (slot_active_ && seed->slot == slot_) on_seed(from, std::move(*seed));
    return true;
  }
  if (auto* query = std::get_if<net::CellQueryMsg>(&msg)) {
    if (slot_active_ && query->slot == slot_) on_query(from, std::move(*query));
    return true;
  }
  if (auto* reply = std::get_if<net::CellReplyMsg>(&msg)) {
    if (slot_active_ && reply->slot == slot_) on_reply(from, std::move(*reply));
    return true;
  }
  return false;
}

void PandasNode::on_seed(net::NodeIndex from, net::SeedMsg&& msg) {
  // In the real protocol the node first verifies the proposer's signature
  // binding the sender as the slot's legitimate builder (§6.1); the
  // simulator's builder is authentic by construction. Cell proofs, however,
  // are verified even against the builder: a rational builder may seed
  // garbage (§4.1), and nodes must not custody or attest to it.
  if (!seed_received_) {
    seed_received_ = true;
    record_.seed_time = engine_.now() - record_.slot_start;
    obs::emit(trace_, obs::EventType::kSeedReceived, engine_.now(), obs::kNoPeer,
              static_cast<std::int64_t>(msg.cells.size()));
  }
  // Accumulate rather than snapshot the first message: a real transport
  // (UdpTransport) fragments one logical seed into several datagrams, each
  // arriving as its own SeedMsg. The simulator delivers exactly one seed
  // per node-slot, so this is behavior-neutral there.
  record_.seed_cells += static_cast<std::uint32_t>(msg.cells.size());
  if (causal_ != nullptr) {
    const obs::HopTiming* hd = transport_.last_delivery(self_);
    const obs::HopTiming hop = hd != nullptr ? *hd : obs::HopTiming{};
    causal_->mark_seed(hop);
    obs::FlowRecord f;
    f.slot = slot_;
    f.kind = obs::FlowKind::kSeed;
    f.peer = from;
    f.cause = msg.cause;
    f.hop = hop;
    causal_->record_delivery(f);
  }
  verify_received(from, msg.cells, msg.tags);
  ingest(msg.cells);
  if (fetcher_->started()) {
    // Seed arrived after the fallback timer launched the fetch: the cells
    // were ingested above; install the boost map for the remaining rounds.
    fetcher_->update_boost(std::move(msg.boost));
  } else {
    start_fetch(std::move(msg.boost));
  }
}

void PandasNode::start_fetch(net::BoostMap boost) {
  if (fetcher_->started()) return;
  if (causal_ != nullptr) {
    causal_->mark_fetch_start(engine_.now(), /*fallback=*/!seed_received_);
  }

  // F = enough missing assigned cells to reconstruct every line, plus the
  // missing samples (consolidation and sampling run concurrently through one
  // fetcher, §6.2/§6.3). A line holding h cells needs only k - h more to
  // decode; fetch_over_request adds margin for loss. Cells the boost map
  // declares as seeded somewhere are preferred — they are servable now.
  std::vector<net::CellId> needed;
  const AssignedLines& lines = custody_.assignment();
  for (const auto line : lines.lines()) {
    if (custody_.line_complete(line)) continue;
    const std::uint32_t held = custody_.line_count(line);
    const auto required = static_cast<std::uint32_t>(
        std::max(0.0, std::ceil((params_.matrix_k - static_cast<double>(held)) *
                                params_.fetch_over_request)));

    // Positions of this line covered by the boost map (seeded to peers).
    util::Bitmap512 boosted_pos;
    for (const auto& lb : boost) {
      if (lb && lb->line == line) {
        for (const auto& [peer, pos] : lb->entries) {
          (void)peer;
          boosted_pos.set(pos);
        }
      }
    }

    // Preference order: cells the boost map says were seeded, then cells in
    // the original region (positions < k exist under every seeding policy —
    // parity cells only come into existence as other nodes reconstruct),
    // then parity positions.
    std::vector<std::uint16_t> preferred, original, parity;
    const util::Bitmap512& held_pos = *custody_.held_in_line(line);
    for (std::uint32_t pos = 0; pos < params_.matrix_n; ++pos) {
      if (held_pos.test(pos)) continue;
      if (boosted_pos.test(pos)) {
        preferred.push_back(static_cast<std::uint16_t>(pos));
      } else if (pos < params_.matrix_k) {
        original.push_back(static_cast<std::uint16_t>(pos));
      } else {
        parity.push_back(static_cast<std::uint16_t>(pos));
      }
    }
    sample_rng_.shuffle(preferred);
    sample_rng_.shuffle(original);
    sample_rng_.shuffle(parity);
    preferred.insert(preferred.end(), original.begin(), original.end());
    preferred.insert(preferred.end(), parity.begin(), parity.end());
    const auto take = std::min<std::size_t>(required, preferred.size());
    for (std::size_t i = 0; i < take; ++i) {
      const std::uint16_t pos = preferred[i];
      needed.push_back(line.kind == net::LineRef::Kind::kRow
                           ? net::CellId{line.index, pos}
                           : net::CellId{pos, line.index});
    }
  }
  for (const auto packed : missing_samples_) {
    needed.push_back(net::CellId::unpack(packed));
  }

  const std::uint64_t generation = slot_generation_;
  // Per-round top-up: if a line's outstanding requests fall below its
  // reconstruction deficit (cells lost, or initially chosen cells that do
  // not exist anywhere yet under sparse seeding policies), widen F with
  // further missing positions. This keeps consolidation live under the
  // minimal/single policies, where parity cells only come into existence as
  // other nodes reconstruct.
  topup_progress_.clear();
  fetcher_->set_topup([this, generation]() {
    std::vector<net::CellId> extra;
    if (generation != slot_generation_) return extra;
    for (const auto line : custody_.assignment().lines()) {
      if (custody_.line_complete(line)) continue;
      const std::uint32_t held = custody_.line_count(line);
      const std::uint32_t deficit =
          params_.matrix_k > held ? params_.matrix_k - held : 0;
      const auto want = static_cast<std::uint32_t>(
          std::ceil(deficit * params_.fetch_over_request));
      const std::uint32_t have =
          fetcher_->outstanding_in_line(line);

      // Replenish when in-flight requests no longer cover the deficit, and
      // also widen F when the line made no progress for a while — the
      // requested cells may simply not exist anywhere yet (sparse policies)
      // or their holders may be dead, so ask for others. Growth is
      // rate-limited per line to avoid request storms at stragglers.
      auto& prog = topup_progress_[line.packed()];
      bool stagnant = false;
      if (prog.count != held) {
        prog.count = held;
        prog.last_change = engine_.now();
      } else if (held > 0 &&
                 engine_.now() - prog.last_change >= 500 * sim::kMillisecond &&
                 engine_.now() - prog.last_growth >= 500 * sim::kMillisecond) {
        stagnant = true;
        prog.last_growth = engine_.now();
      }
      std::uint32_t missing_budget =
          have < want ? want - have : (stagnant ? deficit : 0);
      if (missing_budget == 0) continue;
      // Walk positions starting inside the original region (those cells
      // exist under every seeding policy); wrap into parity afterwards.
      const auto offset =
          static_cast<std::uint32_t>(sample_rng_.uniform(params_.matrix_k));
      const util::Bitmap512& held_pos = *custody_.held_in_line(line);
      for (std::uint32_t i = 0; i < params_.matrix_n && missing_budget > 0; ++i) {
        const auto pos =
            static_cast<std::uint16_t>((offset + i) % params_.matrix_n);
        if (held_pos.test(pos)) continue;
        const net::CellId cell = line.kind == net::LineRef::Kind::kRow
                                     ? net::CellId{line.index, pos}
                                     : net::CellId{pos, line.index};
        if (fetcher_->is_outstanding(cell)) continue;
        extra.push_back(cell);
        --missing_budget;
      }
    }
    return extra;
  });
  obs::emit(trace_, obs::EventType::kFetchStart, engine_.now(), obs::kNoPeer,
            static_cast<std::int64_t>(needed.size()));
  fetcher_->start(
      needed, std::move(boost),
      [this, generation](net::NodeIndex target, std::vector<net::CellId> cells,
                         std::uint32_t round, bool redraw) {
        if (generation != slot_generation_) return;
        obs::emit(trace_, obs::EventType::kQuerySent, engine_.now(), target,
                  static_cast<std::int64_t>(cells.size()));
        net::CellQueryMsg q;
        q.slot = slot_;
        q.cells = std::move(cells);
        q.cause = obs::CauseId{slot_, self_, cause_seq_++};
        q.round = round;
        q.redraw = redraw;
        count_fetch_traffic(net::wire_size(q));
        transport_.send(self_, target, std::move(q));
      });
  check_completion();
}

void PandasNode::on_query(net::NodeIndex from, net::CellQueryMsg&& msg) {
  count_fetch_traffic(net::wire_size(msg));
  obs::emit(trace_, obs::EventType::kQueryReceived, engine_.now(), from,
            static_cast<std::int64_t>(msg.cells.size()));
  // Capture the query's causal context now: replies (immediate or buffered)
  // echo it back so the requester sees the full request -> reply chain.
  QueryContext ctx;
  ctx.cause = msg.cause;
  ctx.round = msg.round;
  ctx.redraw = msg.redraw;
  if (const obs::HopTiming* hd = transport_.last_delivery(self_); hd != nullptr) {
    ctx.hop = *hd;
  }

  if (!seed_received_ && !fetcher_->started() && !fallback_armed_) {
    // First sign of the slot without seed data: arm the fallback timer
    // (§6.2). If the seed still has not arrived when it fires, start
    // consolidation from nothing.
    fallback_armed_ = true;
    const std::uint64_t generation = slot_generation_;
    engine_.schedule_in_as(sim::Engine::lane_of_actor(self_),
                           params_.consolidation_fallback,
                           [this, generation]() {
                             if (generation != slot_generation_) return;
                             if (!fetcher_->started()) start_fetch({});
                           });
  }

  // A mute free-rider consumes the query (and keeps fetching for itself)
  // but never serves: no reply, no buffering — the requester just times out.
  if (behavior() == fault::Behavior::kMuteFreeRider) return;

  // Serve what is held right away; buffer the remainder for a delayed
  // reply once every remaining cell is available. There is never a negative
  // acknowledgement (§7). (The paper's handler replies all-at-once or
  // buffers; serving the held subset immediately additionally lets the
  // seeded fraction of mixed queries bootstrap consolidation network-wide —
  // at most two reply messages per query.)
  std::vector<net::CellId> available;
  std::vector<net::CellId> remaining;
  for (const auto cell : msg.cells) {
    if (custody_.has_cell(cell)) {
      available.push_back(cell);
    } else {
      remaining.push_back(cell);
    }
  }
  if (behavior() == fault::Behavior::kSelectiveWithhold) {
    // Serve only `withhold_serve_cap` cells per row-line per query and
    // silently withhold the rest — starving requesters just below the
    // reconstruction threshold while still looking responsive. Withheld
    // cells are not buffered either.
    std::unordered_map<std::uint16_t, std::uint32_t> served_per_row;
    std::vector<net::CellId> capped;
    for (const auto cell : available) {
      if (served_per_row[cell.row]++ < profile_->withhold_serve_cap) {
        capped.push_back(cell);
      }
    }
    available = std::move(capped);
    remaining.clear();
  }
  if (!available.empty()) send_reply(from, std::move(available), ctx);
  if (!remaining.empty()) {
    obs::emit(trace_, obs::EventType::kQueryBuffered, engine_.now(), from,
              static_cast<std::int64_t>(remaining.size()));
    const auto id = pending_.add(from, remaining);
    pending_ctx_.resize(id + 1);
    pending_ctx_[id] = ctx;
  }
}

void PandasNode::on_reply(net::NodeIndex from, net::CellReplyMsg&& msg) {
  count_fetch_traffic(net::wire_size(msg));
  obs::emit(trace_, obs::EventType::kReplyReceived, engine_.now(), from,
            static_cast<std::int64_t>(msg.cells.size()));
  if (causal_ != nullptr) {
    obs::FlowRecord f;
    f.slot = slot_;
    f.kind =
        msg.buffered ? obs::FlowKind::kBufferedReply : obs::FlowKind::kReply;
    f.peer = from;
    f.cause = msg.cause;
    f.parent = msg.parent;
    if (const obs::HopTiming* hd = transport_.last_delivery(self_); hd != nullptr) {
      f.hop = *hd;
    }
    f.round = msg.round;
    f.redraw = msg.redraw;
    f.query_hop = msg.query_hop;
    causal_->record_delivery(f);
  }
  const auto stripped = verify_received(from, msg.cells, msg.tags);
  const auto result = ingest(msg.cells);
  fetcher_->on_reply(from, result.new_cells, result.duplicates,
                     result.reconstructed, msg.buffered);
  if (!stripped.empty()) fetcher_->on_corrupt_reply(from, stripped);
}

std::vector<net::CellId> PandasNode::verify_received(
    net::NodeIndex from, std::vector<net::CellId>& cells,
    std::vector<std::uint64_t>& tags) {
  std::vector<net::CellId> stripped;
  if (cells.empty()) return stripped;
  std::uint32_t corrupt = 0;
  if (tags.size() != cells.size()) {
    // Proofs missing entirely: indistinguishable from forgery.
    corrupt = static_cast<std::uint32_t>(cells.size());
    if (params_.verify_cells) {
      stripped = std::move(cells);
      cells.clear();
      tags.clear();
    }
  } else {
    std::size_t write = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const bool good = tags[i] == crypto::sim_cell_tag(slot_, cells[i].row,
                                                        cells[i].col);
      if (!good) {
        ++corrupt;
        if (params_.verify_cells) {
          stripped.push_back(cells[i]);
          continue;
        }
      }
      cells[write] = cells[i];
      tags[write] = tags[i];
      ++write;
    }
    cells.resize(write);
    tags.resize(write);
  }
  if (corrupt == 0) return stripped;
  if (params_.verify_cells) {
    record_.cells_corrupt_rejected += corrupt;
    obs::emit(trace_, obs::EventType::kCellsCorruptRejected, engine_.now(),
              from, corrupt);
    if (params_.reputation &&
        reputation_.record_corrupt(from, engine_.now())) {
      obs::emit(trace_, obs::EventType::kPeerGreylisted, engine_.now(), from);
    }
  } else {
    record_.cells_corrupt_accepted += corrupt;
  }
  return stripped;
}

CustodyState::AddResult PandasNode::ingest(std::span<const net::CellId> cells) {
  auto result = custody_.add_cells(cells, /*keep_extras=*/true);
  if (result.reconstructed > 0) {
    obs::emit(trace_, obs::EventType::kReconstruction, engine_.now(),
              obs::kNoPeer, result.reconstructed);
  }
  if (causal_ != nullptr) {
    // Credit the delivery currently being ingested with everything it made
    // available, reconstruction cascades included.
    causal_->note_progress(static_cast<std::uint32_t>(result.obtained.size()),
                           engine_.now());
  }
  if (!result.obtained.empty()) {
    fetcher_->on_cells_obtained(result.obtained);
    if (!missing_samples_.empty()) {
      for (const auto cell : result.obtained) {
        missing_samples_.erase(cell.packed());
      }
    }
    // Buffered queries whose last waited cell just arrived, answered in
    // arrival order.
    for (const auto id : pending_.on_obtained(result.obtained)) {
      send_reply(pending_.requester(id), pending_.cells(id), pending_ctx_[id],
                 /*buffered=*/true);
    }
  }
  check_completion();
  return result;
}

void PandasNode::send_reply(net::NodeIndex to, std::vector<net::CellId> cells,
                            const QueryContext& ctx, bool buffered) {
  obs::emit(trace_,
            buffered ? obs::EventType::kBufferedReplyServed
                     : obs::EventType::kReplySent,
            engine_.now(), to, static_cast<std::int64_t>(cells.size()));
  net::CellReplyMsg reply;
  reply.slot = slot_;
  reply.cells = std::move(cells);
  net::proof_tags(slot_, reply.cells, reply.tags);
  reply.cause = obs::CauseId{slot_, self_, cause_seq_++};
  reply.parent = ctx.cause;
  reply.round = ctx.round;
  reply.redraw = ctx.redraw;
  reply.buffered = buffered;
  reply.query_hop = ctx.hop;
  if (behavior() == fault::Behavior::kByzantineCorrupt) {
    // Garble the proof tag of `corrupt_rate` of the served cells. The
    // decision hashes (sender, honest tag) instead of drawing from an RNG
    // stream, so enabling the fault cannot shift any correct node's
    // randomness — runs stay comparable across fault configs.
    for (auto& tag : reply.tags) {
      const std::uint64_t h =
          util::mix64(tag ^ util::mix64(static_cast<std::uint64_t>(self_) + 1));
      const double u =
          static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform in [0,1)
      if (u < profile_->corrupt_rate) tag ^= 0x6261644b5a4721ULL;  // "badKZG!"
    }
  }
  count_fetch_traffic(net::wire_size(reply));
  transport_.send(self_, to, std::move(reply));
}

void PandasNode::check_completion() {
  const sim::Time elapsed = engine_.now() - record_.slot_start;
  if (!record_.consolidation_time && custody_.all_lines_complete()) {
    record_.consolidation_time = elapsed;
    obs::emit(trace_, obs::EventType::kConsolidationDone, engine_.now());
    if (causal_ != nullptr) causal_->mark_consolidation(engine_.now());
  }
  if (!record_.sampling_time && missing_samples_.empty()) {
    record_.sampling_time = elapsed;
    obs::emit(trace_, obs::EventType::kSamplingDone, engine_.now());
    if (causal_ != nullptr) causal_->mark_sampling(engine_.now());
  }
}

void PandasNode::count_fetch_traffic(std::uint32_t wire_bytes) {
  record_.fetch_messages += 1;
  record_.fetch_bytes += wire_bytes;
}

}  // namespace pandas::core
