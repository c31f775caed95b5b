#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/engine.h"
#include "util/thread_pool.h"

/// Conservative parallel discrete-event execution (Chandy–Misra–Bryant-style
/// lookahead with epoch barriers), docs/SIMULATION.md "Parallel execution".
///
/// Actors are sharded `actor % shards` across per-thread `sim::Engine`s,
/// each with its own calendar queue and event slab. All shards run
/// concurrently over safe windows `[T, T + lookahead)`, where `lookahead` is
/// the minimum cross-actor message latency (for the WAN model: the
/// topology's minimum one-way delay — every cross-node send also pays >= 1 µs
/// of uplink serialization, so its arrival always lands strictly beyond the
/// window). Cross-shard sends are buffered by the transport (the LaneSource)
/// during a window and committed at the barrier in deterministic
/// (time, sender-lane key) order.
///
/// Determinism: event ordering keys are per-lane (sim/engine.h), so an
/// actor's timeline of keys depends only on its own scheduling history —
/// never on which shard its neighbours landed on. Same-seed runs are
/// byte-identical for ANY shard count, including 1; scripts/tier1.sh
/// enforces `--sim-threads 1` vs `--sim-threads 8` export equality.
namespace pandas::sim {

class ParallelEngine {
 public:
  /// Supplier of barrier-buffered cross-shard events (net::SimTransport).
  class LaneSource {
   public:
    virtual ~LaneSource() = default;
    /// Files every buffered cross-shard event (all of which must be
    /// scheduled strictly after `window_end`) into its destination shard,
    /// in deterministic order. Returns the number of events committed.
    virtual std::size_t commit_lanes(Time window_end) = 0;
    /// Drops buffered events (ParallelEngine::clear()).
    virtual void clear_lanes() noexcept = 0;
  };

  /// Window statistics (profiling/--engine-stats; layout-dependent, so the
  /// metrics exporter only publishes them behind --metrics-wall).
  struct WindowStats {
    std::uint64_t windows = 0;    ///< barrier-delimited windows executed
    std::uint64_t lane_events = 0;  ///< cross-shard events committed
  };

  /// `shards` per-thread engines, all seeded identically (rng_stream stays a
  /// pure function of seed + stream id).
  explicit ParallelEngine(std::uint64_t seed, std::uint32_t shards = 1);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  [[nodiscard]] std::uint32_t shards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// Home shard of an actor; the transport uses the same mapping.
  [[nodiscard]] std::uint32_t shard_of(std::uint32_t actor) const noexcept {
    return actor % static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] Engine& shard(std::uint32_t s) noexcept { return *shards_[s]; }
  /// The engine an actor's components must be constructed against: all of
  /// the actor's events schedule and execute on its home shard.
  [[nodiscard]] Engine& engine_for(std::uint32_t actor) noexcept {
    return *shards_[shard_of(actor)];
  }

  /// Safe-window length in µs. Every cross-shard interaction must take
  /// strictly more than this to become visible (the WAN transport's minimum
  /// one-way delay qualifies: serialization adds >= 1 µs on top). Defaults
  /// to 1 — degenerate single-instant windows, correct for any workload.
  void set_lookahead(Time lookahead);
  [[nodiscard]] Time lookahead() const noexcept { return lookahead_; }

  void set_lane_source(LaneSource* source) noexcept { lane_source_ = source; }

  /// Driver-phase clock (outside run_until all shard clocks are equal).
  [[nodiscard]] Time now() const noexcept { return shards_[0]->now(); }
  /// True while shards are executing a window concurrently; the transport
  /// buffers cross-shard sends exactly then (driver-phase sends between
  /// windows go straight to the destination engine).
  [[nodiscard]] bool in_window() const noexcept { return in_window_; }

  /// Runs every event with time <= limit across all shards, window by
  /// window, then leaves every shard clock at `limit`. Single-shard
  /// configurations delegate straight to Engine::run_until — byte-identical
  /// to the serial engine by construction.
  std::uint64_t run_until(Time limit);
  std::uint64_t run() { return run_until(std::numeric_limits<Time>::max()); }

  /// Discards pending events on every shard and buffered lane events.
  /// Driver-phase only (never from inside a window); a shard-local
  /// Engine::clear() from inside a callback stays legal and shard-local.
  void clear();

  [[nodiscard]] std::uint64_t executed() const noexcept;
  [[nodiscard]] std::size_t pending() const noexcept;
  [[nodiscard]] std::uint64_t scheduler_allocs() const noexcept;
  [[nodiscard]] std::size_t event_capacity() const noexcept;

  void set_profiling(bool on) noexcept;
  /// Shard profiles summed (events, allocs, capacity; queue depth is the sum
  /// of per-shard peaks, an upper bound on the global peak), with wall/sim
  /// time measured across whole windows by this coordinator.
  [[nodiscard]] Engine::Profile merged_profile() const;
  [[nodiscard]] const WindowStats& window_stats() const noexcept {
    return stats_;
  }

 private:
  std::vector<std::unique_ptr<Engine>> shards_;
  /// Workers for shards 1..N-1; the coordinating thread runs one shard
  /// itself. Null in single-shard mode.
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<std::uint64_t> counts_;  ///< per-shard events per window
  LaneSource* lane_source_ = nullptr;
  Time lookahead_ = 1;
  bool in_window_ = false;
  bool profiling_ = false;
  WindowStats stats_;
  double wall_seconds_ = 0;
  Time sim_time_ = 0;
};

}  // namespace pandas::sim
