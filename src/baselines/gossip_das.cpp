#include "baselines/gossip_das.h"

#include <algorithm>

namespace pandas::baselines {

core::AssignedLines unit_lines(const core::ProtocolParams& params,
                               std::uint32_t unit) {
  core::AssignedLines lines;
  for (std::uint32_t i = 0; i < params.rows_per_node; ++i) {
    lines.rows.push_back(static_cast<std::uint16_t>(
        (unit * params.rows_per_node + i) % params.matrix_n));
  }
  for (std::uint32_t i = 0; i < params.cols_per_node; ++i) {
    lines.cols.push_back(static_cast<std::uint16_t>(
        (unit * params.cols_per_node + i) % params.matrix_n));
  }
  std::sort(lines.rows.begin(), lines.rows.end());
  std::sort(lines.cols.begin(), lines.cols.end());
  return lines;
}

std::vector<core::AssignedLines> unit_assignments(
    const core::ProtocolParams& params, const net::Directory& directory,
    const crypto::Digest& seed) {
  const std::uint32_t units = unit_count(params);
  std::vector<core::AssignedLines> out;
  out.reserve(directory.size());
  for (net::NodeIndex node = 0; node < directory.size(); ++node) {
    crypto::Sha256 h;
    h.update("gossip-das-unit");
    h.update(seed);
    h.update(directory.id_of(node).bytes);
    const auto unit = static_cast<std::uint32_t>(
        crypto::digest_prefix64(h.finalize()) % units);
    out.push_back(unit_lines(params, unit));
  }
  return out;
}

GossipDasNode::GossipDasNode(sim::Engine& engine, net::Transport& transport,
                             net::NodeIndex self,
                             const core::ProtocolParams& params)
    : engine_(engine),
      transport_(transport),
      self_(self),
      params_(params),
      sample_rng_(engine.rng_stream(0x67646173ULL ^
                                    (static_cast<std::uint64_t>(self) << 24))) {
  gossip_ = std::make_unique<gossip::GossipSubNode>(engine, transport, self);
  gossip_->set_delivery_callback(
      [this](net::NodeIndex from, const net::GossipDataMsg& msg) {
        on_unit_data(from, msg);
      });
}

void GossipDasNode::configure(const core::AssignmentTable* table,
                              const core::View* view, std::uint32_t unit) {
  table_ = table;
  view_ = view;
  unit_ = unit;
}

void GossipDasNode::begin_slot(std::uint64_t slot) {
  slot_ = slot;
  ++generation_;
  slot_start_ = engine_.now();
  custody_ = core::CustodyState(params_, unit_lines(params_, unit_));
  pending_.clear();
  fallback_armed_ = false;
  record_ = SlotRecord{};

  samples_.clear();
  missing_samples_.clear();
  const std::uint64_t span =
      static_cast<std::uint64_t>(params_.matrix_n) * params_.matrix_n;
  while (samples_.size() < params_.samples_per_node) {
    const auto flat = static_cast<std::uint32_t>(sample_rng_.uniform(span));
    const net::CellId cell{static_cast<std::uint16_t>(flat / params_.matrix_n),
                           static_cast<std::uint16_t>(flat % params_.matrix_n)};
    if (missing_samples_.insert(cell.packed()).second) samples_.push_back(cell);
  }

  fetcher_ = std::make_shared<core::AdaptiveFetcher>(
      engine_, params_, *table_, view_, self_,
      engine_.rng_stream(0x67666574ULL ^
                         (static_cast<std::uint64_t>(self_) << 20) ^ slot));
}

bool GossipDasNode::handle_message(net::NodeIndex from, net::Message& msg) {
  if (auto* query = std::get_if<net::CellQueryMsg>(&msg)) {
    if (query->slot == slot_) on_query(from, std::move(*query));
    return true;
  }
  if (auto* reply = std::get_if<net::CellReplyMsg>(&msg)) {
    if (reply->slot == slot_) on_reply(from, std::move(*reply));
    return true;
  }
  // Account gossip traffic before the gossip layer consumes the message.
  const std::uint32_t size = net::wire_size(msg);
  if (gossip_->handle(from, msg)) {
    record_.messages += 1;
    record_.bytes += size;
    return true;
  }
  return false;
}

void GossipDasNode::on_unit_data(net::NodeIndex /*from*/,
                                 const net::GossipDataMsg& msg) {
  if (msg.slot != slot_) return;
  ingest(msg.cells, net::kInvalidNode, /*is_reply=*/false);
  start_sampling();
}

void GossipDasNode::start_sampling() {
  if (fetcher_->started()) return;
  std::vector<net::CellId> needed;
  needed.reserve(missing_samples_.size());
  for (const auto packed : missing_samples_) {
    needed.push_back(net::CellId::unpack(packed));
  }
  const std::uint64_t generation = generation_;
  fetcher_->start(
      needed, {},
      [this, generation](net::NodeIndex target, std::vector<net::CellId> cells,
                         std::uint32_t round, bool redraw) {
        if (generation != generation_) return;
        net::CellQueryMsg q;
        q.slot = slot_;
        q.cells = std::move(cells);
        q.cause = obs::CauseId{slot_, self_, cause_seq_++};
        q.round = round;
        q.redraw = redraw;
        record_.messages += 1;
        record_.bytes += net::wire_size(q);
        transport_.send(self_, target, std::move(q));
      });
  check_completion();
}

void GossipDasNode::on_query(net::NodeIndex from, net::CellQueryMsg&& msg) {
  record_.messages += 1;
  record_.bytes += net::wire_size(msg);
  if (!fetcher_->started() && !fallback_armed_) {
    fallback_armed_ = true;
    const std::uint64_t generation = generation_;
    engine_.schedule_in_as(sim::Engine::lane_of_actor(self_), params_.consolidation_fallback, [this, generation]() {
      if (generation != generation_) return;
      if (!fetcher_->started()) start_sampling();
    });
  }
  // Serve the held subset immediately; buffer the remainder (same partial
  // service as PandasNode, so the sampling comparison stays apples-to-apples).
  std::vector<net::CellId> available;
  std::vector<net::CellId> remaining;
  for (const auto c : msg.cells) {
    if (custody_.has_cell(c)) {
      available.push_back(c);
    } else {
      remaining.push_back(c);
    }
  }
  if (!available.empty()) {
    net::CellReplyMsg reply;
    reply.slot = slot_;
    reply.cells = std::move(available);
    record_.messages += 1;
    record_.bytes += net::wire_size(reply);
    transport_.send(self_, from, std::move(reply));
  }
  if (!remaining.empty()) pending_.add(from, remaining);
}

void GossipDasNode::on_reply(net::NodeIndex from, net::CellReplyMsg&& msg) {
  record_.messages += 1;
  record_.bytes += net::wire_size(msg);
  ingest(msg.cells, from, /*is_reply=*/true);
}

void GossipDasNode::ingest(std::span<const net::CellId> cells,
                           net::NodeIndex reply_from, bool is_reply) {
  auto result = custody_.add_cells(cells, /*keep_extras=*/true);
  if (!result.obtained.empty()) {
    fetcher_->on_cells_obtained(result.obtained);
    for (const auto cell : result.obtained) {
      missing_samples_.erase(cell.packed());
    }
    for (const auto id : pending_.on_obtained(result.obtained)) {
      net::CellReplyMsg reply;
      reply.slot = slot_;
      reply.cells = pending_.cells(id);
      record_.messages += 1;
      record_.bytes += net::wire_size(reply);
      transport_.send(self_, pending_.requester(id), std::move(reply));
    }
  }
  if (is_reply) {
    fetcher_->on_reply(reply_from, result.new_cells, result.duplicates,
                       result.reconstructed);
  }
  check_completion();
}

void GossipDasNode::check_completion() {
  const sim::Time elapsed = engine_.now() - slot_start_;
  if (!record_.custody_time && custody_.all_lines_complete()) {
    record_.custody_time = elapsed;
  }
  if (!record_.sampling_time && missing_samples_.empty()) {
    record_.sampling_time = elapsed;
  }
}

}  // namespace pandas::baselines
