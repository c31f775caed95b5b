#include "baselines/dht_das.h"

namespace pandas::baselines {

crypto::NodeId parcel_key(std::uint64_t slot, std::uint16_t row,
                          std::uint16_t parcel) {
  crypto::Sha256 h;
  h.update("dht-das-parcel");
  h.update_u64(slot);
  h.update_u32(row);
  h.update_u32(parcel);
  return crypto::NodeId::from_digest(h.finalize());
}

std::vector<net::CellId> parcel_cells(const core::ProtocolParams& params,
                                      std::uint16_t row, std::uint16_t parcel) {
  std::vector<net::CellId> out;
  const std::uint32_t begin = static_cast<std::uint32_t>(parcel) * kParcelCells;
  const std::uint32_t end =
      std::min<std::uint32_t>(begin + kParcelCells, params.matrix_n);
  out.reserve(end - begin);
  for (std::uint32_t c = begin; c < end; ++c) {
    out.push_back({row, static_cast<std::uint16_t>(c)});
  }
  return out;
}

DhtDasBuilder::DhtDasBuilder(sim::Engine& engine, net::Transport& transport,
                             const net::Directory& directory,
                             net::NodeIndex self,
                             const core::ProtocolParams& params)
    : engine_(engine), params_(params) {
  dht_ = std::make_unique<dht::KademliaNode>(engine, transport, directory,
                                             self);
}

void DhtDasBuilder::seed_slot(std::uint64_t slot, std::uint32_t max_concurrent) {
  slot_ = slot;
  next_parcel_ = 0;
  launched_ = 0;
  completed_ = 0;
  failed_ = 0;
  const std::uint32_t parcels_per_row =
      (params_.matrix_n + kParcelCells - 1) / kParcelCells;
  total_ = params_.matrix_n * parcels_per_row;
  for (std::uint32_t i = 0; i < max_concurrent && i < total_; ++i) {
    launch_next();
  }
}

void DhtDasBuilder::launch_next() {
  if (next_parcel_ >= total_) return;
  const std::uint32_t parcels_per_row =
      (params_.matrix_n + kParcelCells - 1) / kParcelCells;
  const auto row = static_cast<std::uint16_t>(next_parcel_ / parcels_per_row);
  const auto parcel = static_cast<std::uint16_t>(next_parcel_ % parcels_per_row);
  ++next_parcel_;
  ++launched_;
  dht_->store(parcel_key(slot_, row, parcel), parcel_cells(params_, row, parcel),
              [this](bool ok, std::uint32_t) {
                if (ok) {
                  ++completed_;
                } else {
                  ++failed_;
                }
                launch_next();
              });
}

DhtDasNode::DhtDasNode(sim::Engine& engine, net::Transport& transport,
                       const net::Directory& directory, net::NodeIndex self,
                       const core::ProtocolParams& params)
    : engine_(engine),
      params_(params),
      self_(self),
      sample_rng_(engine.rng_stream(0x64686173ULL ^
                                    (static_cast<std::uint64_t>(self) << 24))) {
  dht_ = std::make_unique<dht::KademliaNode>(engine, transport, directory,
                                             self);
}

void DhtDasNode::begin_slot(std::uint64_t slot) {
  slot_ = slot;
  ++generation_;
  slot_start_ = engine_.now();
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
}

void DhtDasNode::start_sampling(std::uint32_t max_retries) {
  // Deduplicate samples into covering parcels, then fetch each once.
  std::unordered_set<std::uint32_t> parcels;
  for (const auto cell : samples_) {
    const auto [row, parcel] = parcel_of(cell);
    const std::uint32_t packed = (static_cast<std::uint32_t>(row) << 16) | parcel;
    if (parcels.insert(packed).second) {
      fetch_parcel(row, parcel, max_retries);
    }
  }
}

void DhtDasNode::fetch_parcel(std::uint16_t row, std::uint16_t parcel,
                              std::uint32_t retries_left) {
  const std::uint64_t generation = generation_;
  ++record_.gets_launched;
  dht_->get(parcel_key(slot_, row, parcel),
            [this, generation, row, parcel, retries_left](
                bool found, std::vector<net::CellId> cells) {
              if (generation != generation_) return;
              if (found) {
                ++record_.gets_ok;
                on_cells(cells);
                // UDP loss can shave cells off the multi-packet value reply;
                // if any sample of this parcel is still missing, re-fetch.
                bool incomplete = false;
                for (const auto cell : parcel_cells(params_, row, parcel)) {
                  if (missing_samples_.count(cell.packed()) != 0) {
                    incomplete = true;
                    break;
                  }
                }
                if (incomplete && retries_left > 0) {
                  ++record_.retries_scheduled;
                  engine_.schedule_in_as(sim::Engine::lane_of_actor(self_), 
                      200 * sim::kMillisecond,
                      [this, generation, row, parcel, retries_left]() {
                        if (generation != generation_) return;
                        ++record_.retries_fired;
                        fetch_parcel(row, parcel, retries_left - 1);
                      });
                }
              } else if (retries_left > 0) {
                // The builder may still be storing parcels; back off and
                // retry (sampling races the multi-hop stores — one of the
                // structural weaknesses of the DHT approach, §8.1).
                ++record_.retries_scheduled;
                engine_.schedule_in_as(sim::Engine::lane_of_actor(self_), 
                    500 * sim::kMillisecond,
                    [this, generation, row, parcel, retries_left]() {
                      if (generation != generation_) return;
                      ++record_.retries_fired;
                      fetch_parcel(row, parcel, retries_left - 1);
                    });
              } else {
                ++record_.gets_failed;
              }
            });
}

bool DhtDasNode::handle_message(net::NodeIndex from, net::Message& msg) {
  return dht_->handle(from, msg);
}

void DhtDasNode::on_cells(std::span<const net::CellId> cells) {
  for (const auto cell : cells) missing_samples_.erase(cell.packed());
  check_completion();
}

void DhtDasNode::check_completion() {
  if (!record_.sampling_time && missing_samples_.empty()) {
    record_.sampling_time = engine_.now() - slot_start_;
  }
}

}  // namespace pandas::baselines
