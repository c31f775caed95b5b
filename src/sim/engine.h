#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/calendar_queue.h"
#include "sim/inline_callback.h"
#include "sim/time.h"
#include "util/prng.h"

/// The discrete-event simulation engine: a virtual clock plus an ordered
/// queue of callbacks. Events execute in ascending (time, key) order, where
/// the key is drawn from a per-lane counter at scheduling time — lane 0 (the
/// driver lane, the default for schedule_at/schedule_in) reproduces plain
/// FIFO scheduling order, while per-actor lanes give every actor an ordering
/// timeline that is independent of how actors are interleaved. That
/// independence is what lets sim::ParallelEngine (parallel_engine.h) shard
/// actors across threads and still produce bit-identical runs; the full
/// determinism contract is written down in docs/SIMULATION.md.
///
/// The scheduler is a hierarchical calendar queue (sim/calendar_queue.h) over
/// a slab-pooled event store: O(1) amortized per event and zero
/// allocations in steady state — what makes 20k-node sweeps tractable.
/// tests/sim_test.cpp checks its order against a reference priority queue.
namespace pandas::sim {

class Engine {
 public:
  /// Inline, pool-friendly callable (sim/inline_callback.h). Captures are
  /// bounded at compile time; bulky state (e.g. in-flight messages) lives in
  /// component-owned pools instead of the closure.
  using Callback = InlineCallback;

  explicit Engine(std::uint64_t seed = 1) : rng_(seed), seed_(seed) {}

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Ordering lanes. Every event carries a 64-bit ordering key
  /// `(lane << kLaneShift) | counter`. The engine takes all events of an
  /// instant as one batch before running any, so an event scheduled at the
  /// instant currently executing runs after every event already queued at
  /// it, whatever its lane — exactly the old global-FIFO behavior. Counters
  /// are per-lane, so a lane's key sequence depends only
  /// on that lane's own scheduling history: the property ParallelEngine
  /// relies on for layout-invariant execution order. Lane 0 is the driver
  /// lane (harness/tests); actors use `lane_of_actor(index)`.
  static constexpr std::uint32_t kDriverLane = 0;
  static constexpr int kLaneShift = 40;
  [[nodiscard]] static constexpr std::uint32_t lane_of_actor(
      std::uint32_t actor) noexcept {
    return actor + 1;
  }

  /// Schedules `fn` to run at absolute time `t` (>= now) on the driver lane.
  void schedule_at(Time t, Callback fn) {
    schedule_as(kDriverLane, t, std::move(fn));
  }

  /// Schedules `fn` to run `delay` after the current time (driver lane).
  void schedule_in(Time delay, Callback fn) {
    schedule_as(kDriverLane, now_ + delay, std::move(fn));
  }

  /// Schedules on a specific ordering lane (per-actor timelines).
  void schedule_as(std::uint32_t lane, Time t, Callback fn);
  void schedule_in_as(std::uint32_t lane, Time delay, Callback fn) {
    schedule_as(lane, now_ + delay, std::move(fn));
  }

  /// Draws the next ordering key for `lane` without scheduling. Used by the
  /// transport for cross-shard sends: the key is consumed at send time (so
  /// the sender's lane advances identically in every shard layout) and the
  /// event is filed later on the destination engine with schedule_keyed().
  [[nodiscard]] std::uint64_t next_key(std::uint32_t lane);

  /// Schedules with a pre-drawn key (see next_key). `t` must be >= now; keys
  /// must be unique per (engine, instant).
  void schedule_keyed(Time t, std::uint64_t key, Callback fn);

  /// Earliest pending timestamp, or nullopt when idle (may migrate wheel
  /// overflow, never advances the clock). ParallelEngine uses this to pick
  /// each safe window's base time.
  [[nodiscard]] std::optional<Time> next_event_time() {
    return wheel_.next_time();
  }

  /// Runs events until the queue empties or the clock passes `limit`.
  /// Returns the number of events executed.
  std::uint64_t run_until(Time limit);

  /// Runs until the queue is empty.
  std::uint64_t run() { return run_until(std::numeric_limits<Time>::max()); }

  /// Real-time mode: advances the virtual clock in lockstep with the wall
  /// clock for `duration`, executing timers when they come due and invoking
  /// `idle(max_wait)` between them (e.g. to poll sockets — see
  /// net::UdpTransport). Returns the number of events executed.
  std::uint64_t run_realtime(Time duration,
                             const std::function<void(Time max_wait)>& idle);

  /// Discards all pending events (used between slots by the harness). Safe
  /// to call from inside a running callback: the rest of the current
  /// instant's events are dropped too.
  void clear();

  /// Events scheduled but not yet executed.
  [[nodiscard]] std::size_t pending() const noexcept {
    return wheel_.size() + detached_;
  }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Number of times a scheduler container grew (event slab / overflow
  /// list). Constant across a window of steady-state scheduling — i.e. zero
  /// allocations — once the pools are warm; bench_micro's engine benchmark
  /// asserts this.
  [[nodiscard]] std::uint64_t scheduler_allocs() const noexcept {
    return wheel_.alloc_count();
  }
  /// Current event-storage capacity (event slab slots).
  [[nodiscard]] std::size_t event_capacity() const noexcept {
    return wheel_.slab_capacity();
  }

  /// Engine-level profiling for the observability layer: peak event-queue
  /// depth, wall-clock seconds spent inside run_until(), events executed in
  /// profiled windows, and scheduler allocation counters — together with
  /// the virtual clock these give wall-seconds-per-sim-second and
  /// events/sec. Off by default so the hot loop carries no clock reads
  /// (< 2 % budget, see bench_micro).
  struct Profile {
    std::uint64_t peak_queue_depth = 0;
    double wall_seconds = 0;
    /// Virtual time covered by profiled run_until() calls.
    Time sim_time = 0;
    /// Events executed inside profiled run_until() calls.
    std::uint64_t events = 0;
    /// Snapshot of scheduler_allocs()/event_capacity() at the end of the
    /// last profiled run (see docs/SIMULATION.md).
    std::uint64_t scheduler_allocs = 0;
    std::uint64_t event_capacity = 0;

    [[nodiscard]] double wall_per_sim_second() const noexcept {
      const double sim_s =
          static_cast<double>(sim_time) / static_cast<double>(kSecond);
      return sim_s > 0 ? wall_seconds / sim_s : 0.0;
    }
    [[nodiscard]] double events_per_wall_second() const noexcept {
      return wall_seconds > 0
                 ? static_cast<double>(events) / wall_seconds
                 : 0.0;
    }
  };
  void set_profiling(bool on) noexcept { profiling_ = on; }
  [[nodiscard]] bool profiling() const noexcept { return profiling_; }
  [[nodiscard]] const Profile& profile() const noexcept { return profile_; }

  /// The engine's master RNG. Components should derive independent streams
  /// via rng_stream() rather than sharing this directly.
  [[nodiscard]] util::Xoshiro256& rng() noexcept { return rng_; }

  /// Derives a deterministic, independent RNG stream for a named component
  /// (e.g. per-node fetch randomness), so adding components or reordering
  /// calls does not perturb unrelated random sequences.
  [[nodiscard]] util::Xoshiro256 rng_stream(std::uint64_t stream_id) const noexcept {
    return util::Xoshiro256(util::mix64(seed_ ^ util::mix64(stream_id)));
  }

 private:
  /// Executes every event with time <= limit, setting now_ = max(now_, t).
  /// Shared by run_until and run_realtime; returns the number executed.
  std::uint64_t drain_until_(Time limit);

  Time now_ = 0;
  /// Per-lane key counters, grown on first use of a lane.
  std::vector<std::uint64_t> lane_seq_;
  std::uint64_t executed_ = 0;
  CalendarQueue wheel_;
  /// Bucket detached by the wheel for the instant being executed.
  std::vector<CalendarQueue::EventIndex> bucket_;
  /// Detached-but-unexecuted events (counted by pending()).
  std::size_t detached_ = 0;
  /// Bumped by clear() so an in-flight bucket knows to drop its remainder.
  std::uint64_t clear_epoch_ = 0;
  util::Xoshiro256 rng_;
  std::uint64_t seed_;
  bool profiling_ = false;
  Profile profile_;
};

}  // namespace pandas::sim
