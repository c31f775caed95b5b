#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/time.h"

/// Hierarchical calendar queue (timing wheel) for the discrete-event engine.
///
/// Seven levels of 64 slots each; the slot width at level L is 64^L µs, so
/// level 0 resolves single microseconds and the whole hierarchy spans
/// 2^42 µs ≈ 52 days of sim time. Events further out than that go to an
/// unsorted overflow list and migrate into the wheel as the clock
/// approaches. Push and pop are O(1) amortized (a pop cascades at most one
/// slot per level), versus O(log n) per operation for a binary heap, and —
/// crucially for large sweeps — all event state lives in one slab with an
/// intrusive freelist, so the steady-state hot loop performs zero heap
/// allocations.
///
/// Ordering contract (the determinism contract, docs/SIMULATION.md): events
/// execute in ascending (time, key) order. Level-0 slots are one microsecond
/// wide, so a popped bucket holds events of a single timestamp; sorting that
/// bucket by the per-instant-unique key restores the global (time, key)
/// order no matter which cascade path each event took to get there.
/// `Engine.WheelMatchesHeapOnRandomWorkload` (tests/sim_test.cpp) checks the
/// contract against a reference priority queue.
namespace pandas::sim {

class CalendarQueue {
 public:
  using EventIndex = std::int32_t;
  static constexpr EventIndex kNil = -1;

  static constexpr int kSlotBits = 6;           // 64 slots per level
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr int kLevels = 7;             // span = 2^42 µs ≈ 52 days
  static constexpr std::uint64_t kSpan = 1ULL << (kSlotBits * kLevels);

  struct Event {
    std::uint64_t time = 0;
    std::uint64_t seq = 0;
    EventIndex next = kNil;  ///< intrusive bucket list / freelist link
    InlineCallback fn;
  };

  /// Files a new event. `t` must be >= the last popped time (the engine
  /// enforces t >= now). `seq` is the 64-bit ordering key (sim/engine.h lane
  /// keys): it must be unique per instant — bucket sorting restores the
  /// global (time, key) order, monotonicity is not required.
  void push(Time t, std::uint64_t seq, InlineCallback fn);

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Earliest pending timestamp, or nullopt when empty. Read-mostly: may
  /// migrate overflow events that have come within the wheel's span, but
  /// never advances the wheel clock — only pop_time() commits an advance,
  /// so pushes at any t >= the engine clock stay legal in between.
  [[nodiscard]] std::optional<Time> next_time();

  /// Advances the wheel to `t` — which must be the value just returned by
  /// next_time() — cascading higher-level slots as the clock crosses their
  /// boundaries, and detaches every event scheduled exactly at `t` into
  /// `out`, sorted ascending by seq. Detached events stay live in the slab:
  /// the caller runs `take()` + `release()` per event (or `discard()` to
  /// drop one unexecuted).
  void pop_time(Time t, std::vector<EventIndex>& out);

  /// Moves the callback out of a detached event.
  [[nodiscard]] InlineCallback take(EventIndex i) noexcept {
    return std::move(slab_[static_cast<std::size_t>(i)].fn);
  }
  /// Returns a detached slot to the freelist (callback already taken).
  void release(EventIndex i) noexcept;
  /// Destroys a detached event's callback and frees its slot.
  void discard(EventIndex i) noexcept;

  /// Drops every event still attached to the queue (buckets + overflow).
  /// Events already detached by pop_time are the caller's to discard.
  void clear();

  /// Number of times an internal container grew (slab, overflow list). Zero
  /// growth across a steady-state window is the zero-allocation criterion
  /// measured by bench_micro's engine benchmark.
  [[nodiscard]] std::uint64_t alloc_count() const noexcept { return allocs_; }
  [[nodiscard]] std::size_t slab_capacity() const noexcept {
    return slab_.capacity();
  }

 private:
  struct Bucket {
    EventIndex head = kNil;
    EventIndex tail = kNil;
    /// Earliest timestamp in the bucket, maintained on append — buckets are
    /// only ever emptied wholesale (cascade/pop/clear), so a running min
    /// suffices and next_time() never walks a list.
    std::uint64_t min_time = 0;
  };

  [[nodiscard]] EventIndex acquire_();
  /// Appends an already-allocated event to its level/slot (or overflow).
  void file_(EventIndex i);
  /// Redistributes one slot's list after the clock crossed into its range.
  void cascade_(int level, int slot);
  /// Moves overflow events that now fit (delta < kSpan) into the wheel.
  void migrate_overflow_();

  std::vector<Event> slab_;
  EventIndex free_head_ = kNil;
  Bucket buckets_[kLevels][kSlots];
  std::uint64_t occupancy_[kLevels] = {};  ///< bit s = slot s non-empty
  std::uint64_t base_ = 0;                 ///< wheel clock (<= engine now)
  std::vector<EventIndex> overflow_;       ///< delta >= kSpan at push time
  std::uint64_t overflow_min_ = 0;
  std::size_t size_ = 0;
  std::uint64_t allocs_ = 0;
};

}  // namespace pandas::sim
