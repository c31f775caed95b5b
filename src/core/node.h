#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/custody.h"
#include "core/fetcher.h"
#include "core/params.h"
#include "core/query_buffer.h"
#include "core/reputation.h"
#include "core/rtt.h"
#include "core/view.h"
#include "fault/fault.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "sim/engine.h"

/// A PANDAS full node (paper §6): custodies its assigned rows/columns,
/// consolidates missing assigned cells from peers, samples 73 random cells,
/// and serves (or buffers) incoming cell queries.
///
/// Per-slot behaviour:
///  - On the builder's seed message: ingest seed cells and launch the
///    adaptive fetcher over (missing assigned cells ∪ missing samples),
///    primed with the consolidation-boost map.
///  - On a query for the current slot before any seed arrived: arm a 400 ms
///    fallback timer; fetch starts without seed data when it fires (§6.2).
///  - On a query for cells it does not (fully) hold yet: buffer the query
///    and reply when every requested cell is available — there are no
///    negative acknowledgements (§7).
///  - Reconstruction: once a line holds >= k cells, the rest are recovered
///    locally and can immediately serve buffered queries.
namespace pandas::core {

class PandasNode {
 public:
  /// Everything the evaluation measures about one node-slot.
  struct SlotRecord {
    std::uint64_t slot = 0;
    sim::Time slot_start = 0;
    /// Completion instants relative to slot start; nullopt = never happened.
    std::optional<sim::Time> seed_time;
    std::optional<sim::Time> consolidation_time;
    std::optional<sim::Time> sampling_time;
    std::uint32_t seed_cells = 0;
    /// Fetch-phase traffic, both directions (queries + replies), as plotted
    /// in Fig 10 / Fig 13.
    std::uint32_t fetch_messages = 0;
    std::uint64_t fetch_bytes = 0;
    /// Received cells whose proof tag failed verification and were
    /// discarded (params.verify_cells on) ...
    std::uint32_t cells_corrupt_rejected = 0;
    /// ... or would have failed but were admitted (verification off). A
    /// hardened node must keep this at zero.
    std::uint32_t cells_corrupt_accepted = 0;
  };

  PandasNode(sim::Engine& engine, net::Transport& transport, net::NodeIndex self,
             const ProtocolParams& params);

  /// Epoch configuration: the (globally derivable) assignment table.
  void configure_epoch(const AssignmentTable* table) { table_ = table; }
  /// This node's current network view (owned by the harness).
  void set_view(const View* view) { view_ = view; }
  /// Observability sink (nullptr = tracing off); propagated to the per-slot
  /// fetcher. The sink must outlive the node.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }
  /// Causal provenance sink (nullptr = off; obs/causal.h). Records where
  /// every cell-carrying delivery came from and which one completed the
  /// slot, for critical-path deadline attribution. Must outlive the node.
  void set_causal(obs::CausalSink* sink) { causal_ = sink; }
  /// Fault-injection behavior profile (nullptr = correct). The profile must
  /// outlive the node; only the serving-side behaviors are read here —
  /// fail-silent, straggler, and churn act at the transport via the harness.
  void set_fault_profile(const fault::NodeProfile* profile) {
    profile_ = profile;
  }

  /// Starts a new slot: fresh custody, fresh samples, fresh fetcher.
  void begin_slot(std::uint64_t slot);

  /// Transport entry point. Returns true if the message was consumed.
  bool handle_message(net::NodeIndex from, net::Message& msg);

  [[nodiscard]] const SlotRecord& record() const noexcept { return record_; }
  [[nodiscard]] const CustodyState& custody() const noexcept { return custody_; }
  [[nodiscard]] const std::vector<net::CellId>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] const AdaptiveFetcher* fetcher() const noexcept {
    return fetcher_.get();
  }
  [[nodiscard]] net::NodeIndex index() const noexcept { return self_; }
  [[nodiscard]] bool consolidated() const noexcept {
    return record_.consolidation_time.has_value();
  }
  [[nodiscard]] bool sampled() const noexcept {
    return record_.sampling_time.has_value();
  }
  /// Queries buffered until their cells are held (never NACKed, §7).
  [[nodiscard]] std::size_t buffered_queries() const noexcept {
    return pending_.pending();
  }
  /// Cross-slot peer reputation (drives fetch-path hardening when
  /// params.reputation is on).
  [[nodiscard]] const PeerReputation& reputation() const noexcept {
    return reputation_;
  }
  /// Topology RTT prior handed to fresh peer estimators. Must be a pure
  /// function of the peer index (callable from any engine shard).
  void set_rtt_prior(std::function<double(net::NodeIndex)> prior_ms) {
    rtt_.set_prior(std::move(prior_ms));
  }
  /// Last-resort hedge candidates (degradation ladder rung 3, e.g.
  /// DHT-discovered custodians); forwarded to each slot's fetcher.
  void set_last_resort(AdaptiveFetcher::LastResortFn fn) {
    last_resort_ = std::move(fn);
  }

 private:
  /// Causal context of the query a reply answers, echoed into the reply so
  /// the requester can reconstruct the request -> serve -> reply chain.
  struct QueryContext {
    obs::CauseId cause{};
    std::uint32_t round = 0;
    bool redraw = false;
    obs::HopTiming hop{};  ///< the query's transit, seen at this server
  };

  void on_seed(net::NodeIndex from, net::SeedMsg&& msg);
  void on_query(net::NodeIndex from, net::CellQueryMsg&& msg);
  void on_reply(net::NodeIndex from, net::CellReplyMsg&& msg);

  /// Launches the fetcher if not yet running. `boost` may be empty.
  void start_fetch(net::BoostMap boost);
  /// Ingests cells into custody; updates fetch set, samples, pending
  /// queries, and completion records. Returns the custody AddResult.
  CustodyState::AddResult ingest(std::span<const net::CellId> cells);
  void check_completion();
  void send_reply(net::NodeIndex to, std::vector<net::CellId> cells,
                  const QueryContext& ctx, bool buffered = false);
  /// Charges one fetch-phase message of `wire_bytes` (net::wire_size).
  void count_fetch_traffic(std::uint32_t wire_bytes);
  /// Verifies proof tags against crypto::sim_cell_tag; strips cells that
  /// fail (or all of them when tags are missing) and charges `from`'s
  /// reputation. Returns the stripped cells so the fetch path can re-query
  /// them immediately. With params.verify_cells off, nothing is stripped but
  /// mismatches are still counted (cells_corrupt_accepted).
  std::vector<net::CellId> verify_received(net::NodeIndex from,
                                           std::vector<net::CellId>& cells,
                                           std::vector<std::uint64_t>& tags);
  [[nodiscard]] fault::Behavior behavior() const noexcept {
    return profile_ == nullptr ? fault::Behavior::kCorrect : profile_->behavior;
  }

  sim::Engine& engine_;
  net::Transport& transport_;
  net::NodeIndex self_;
  ProtocolParams params_;
  const AssignmentTable* table_ = nullptr;
  const View* view_ = nullptr;
  const fault::NodeProfile* profile_ = nullptr;
  util::Xoshiro256 sample_rng_;
  PeerReputation reputation_;
  PeerRtt rtt_;
  AdaptiveFetcher::LastResortFn last_resort_;

  std::uint64_t slot_ = 0;
  bool slot_active_ = false;
  std::uint64_t slot_generation_ = 0;  // invalidates stale timers
  CustodyState custody_;
  std::vector<net::CellId> samples_;
  std::unordered_set<std::uint32_t> missing_samples_;  // packed CellIds
  std::shared_ptr<AdaptiveFetcher> fetcher_;
  /// Queries waiting for cells not yet held, and their causal contexts
  /// (indexed by QueryBuffer::QueryId).
  QueryBuffer pending_;
  std::vector<QueryContext> pending_ctx_;
  /// Per-line progress tracking for the stagnation-driven fetch-set growth.
  struct TopUpProgress {
    std::uint32_t count = 0;
    sim::Time last_change = 0;
    sim::Time last_growth = 0;
  };
  std::unordered_map<std::uint16_t, TopUpProgress> topup_progress_;
  bool fallback_armed_ = false;
  bool seed_received_ = false;
  SlotRecord record_;
  obs::TraceSink* trace_ = nullptr;
  obs::CausalSink* causal_ = nullptr;
  /// Per-slot sequence for CauseIds this node originates (queries, replies).
  std::uint32_t cause_seq_ = 0;
};

}  // namespace pandas::core
