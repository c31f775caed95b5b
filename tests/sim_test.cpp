#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "sim/engine.h"
#include "sim/topology.h"

namespace pandas::sim {
namespace {

// ------------------------------------------------------------------- Engine

TEST(Engine, ExecutesInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(30, [&] { order.push_back(3); });
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(20, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, FifoForEqualTimes) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(5, [&, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, ClockAdvancesToEventTime) {
  Engine engine;
  Time seen = -1;
  engine.schedule_at(123, [&] { seen = engine.now(); });
  engine.run();
  EXPECT_EQ(seen, 123);
}

TEST(Engine, RunUntilStopsAtLimit) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(10, [&] { ++fired; });
  engine.schedule_at(100, [&] { ++fired; });
  EXPECT_EQ(engine.run_until(50), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), 50);
  EXPECT_EQ(engine.pending(), 1u);
  engine.run_until(200);
  EXPECT_EQ(fired, 2);
}

TEST(Engine, NestedScheduling) {
  Engine engine;
  std::vector<Time> times;
  engine.schedule_at(10, [&] {
    times.push_back(engine.now());
    engine.schedule_in(5, [&] { times.push_back(engine.now()); });
  });
  engine.run();
  EXPECT_EQ(times, (std::vector<Time>{10, 15}));
}

TEST(Engine, SchedulingInPastThrows) {
  Engine engine;
  engine.schedule_at(10, [] {});
  engine.run();
  EXPECT_EQ(engine.now(), 10);
  EXPECT_THROW(engine.schedule_at(5, [] {}), std::logic_error);
}

TEST(Engine, RngStreamsIndependentAndDeterministic) {
  Engine a(7), b(7);
  auto s1 = a.rng_stream(1);
  auto s1b = b.rng_stream(1);
  auto s2 = a.rng_stream(2);
  EXPECT_EQ(s1(), s1b());
  EXPECT_NE(s1(), s2());
}

TEST(Engine, ClearDropsPending) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(10, [&] { ++fired; });
  engine.clear();
  engine.run();
  EXPECT_EQ(fired, 0);
}

// ------------------------------------------------- scheduler edge cases
// Calendar-queue corner cases: same-instant bursts, in-callback clears,
// times beyond the wheel span, and the zero-allocation steady state.

TEST(EngineScheduler, SameInstantFifo10k) {
  // 10k events at one instant plus decoys on both sides; the same-instant
  // batch must run in exact scheduling order (monotone seq tie-break).
  Engine engine;
  constexpr int kN = 10000;
  std::vector<int> order;
  order.reserve(kN);
  engine.schedule_at(999, [] {});
  for (int i = 0; i < kN; ++i) {
    engine.schedule_at(1000, [&order, i] { order.push_back(i); });
  }
  engine.schedule_at(1001, [] {});
  engine.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) ASSERT_EQ(order[i], i);
}

TEST(EngineScheduler, ClearFromInsideCallbackDropsRestOfInstant) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(10, [&] { order.push_back(0); });
  engine.schedule_at(10, [&] {
    order.push_back(1);
    engine.clear();  // drops the two events below, including the same-instant one
  });
  engine.schedule_at(10, [&] { order.push_back(2); });
  engine.schedule_at(20, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(engine.pending(), 0u);
  // The engine is reusable after an in-callback clear.
  engine.schedule_at(30, [&] { order.push_back(4); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 4}));
}

TEST(EngineScheduler, ScheduleAtCurrentInstantFromCallback) {
  // An event scheduled for `now` from inside a callback still runs in this
  // drain, after every previously scheduled event of the same instant.
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(5, [&] {
    order.push_back(0);
    engine.schedule_at(5, [&] { order.push_back(2); });
  });
  engine.schedule_at(5, [&] { order.push_back(1); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(engine.now(), 5);
}

TEST(EngineScheduler, FarFutureTimesCrossTheWheelSpan) {
  // Times beyond the wheel's 2^42 µs span (~52 days) park in the overflow
  // list and migrate in as the clock approaches; order must be unaffected.
  Engine engine;
  constexpr Time kSpan = Time{1} << 42;
  std::vector<int> order;
  engine.schedule_at(3 * kSpan + 5, [&] { order.push_back(2); });
  engine.schedule_at(10, [&] { order.push_back(0); });
  engine.schedule_at(Time{1} << 60, [&] { order.push_back(3); });
  engine.schedule_at(3 * kSpan, [&] { order.push_back(1); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(engine.now(), Time{1} << 60);
}

TEST(EngineScheduler, RunUntilLeavesFarFutureEventsPending) {
  Engine engine;
  int fired = 0;
  engine.schedule_at((Time{1} << 50) + 7, [&] { ++fired; });
  EXPECT_EQ(engine.run_until(Time{1} << 50), 0u);
  EXPECT_EQ(engine.pending(), 1u);
  // The clock stopped at the limit; scheduling between limit and the parked
  // event must still be legal and ordered.
  std::vector<int> order;
  engine.schedule_at((Time{1} << 50) + 3, [&] { order.push_back(0); });
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(order, (std::vector<int>{0}));
}

TEST(EngineScheduler, PendingCountsTheInstantBeingExecuted) {
  Engine engine;
  std::vector<std::size_t> depths;
  for (int i = 0; i < 4; ++i) {
    engine.schedule_at(10, [&] { depths.push_back(engine.pending()); });
  }
  engine.run();
  // Inside callback k, the remaining 3-k events of this instant are pending.
  EXPECT_EQ(depths, (std::vector<std::size_t>{3, 2, 1, 0}));
}

TEST(EngineScheduler, SteadyStateSchedulesWithoutAllocating) {
  // Self-rescheduling timers: once the pools are warm, the scheduler grows
  // no container (the zero-allocation criterion, measured for real by
  // bench_micro's BM_Engine_SteadyState).
  Engine engine;
  struct Timer {
    Engine* eng;
    std::uint64_t salt;
    void operator()() const {
      eng->schedule_in(1 + (eng->now() ^ salt) % 500, Timer{eng, salt});
    }
  };
  for (std::uint64_t i = 0; i < 512; ++i) {
    engine.schedule_in(1 + i % 97, Timer{&engine, i});
  }
  engine.run_until(50 * kMillisecond);  // warm-up: pools reach steady size
  const std::uint64_t allocs = engine.scheduler_allocs();
  EXPECT_GT(engine.event_capacity(), 0u);
  engine.run_until(500 * kMillisecond);
  EXPECT_EQ(engine.scheduler_allocs(), allocs);
  engine.clear();
}

TEST(EngineScheduler, ProfileCountsEventsAndDepth) {
  Engine engine;
  engine.set_profiling(true);
  for (int i = 0; i < 8; ++i) engine.schedule_at(10 + i, [] {});
  engine.run();
  EXPECT_EQ(engine.profile().events, 8u);
  EXPECT_EQ(engine.profile().peak_queue_depth, 8u);
  EXPECT_GE(engine.profile().wall_seconds, 0.0);
}

// Reference scheduler for the ordering contract (docs/SIMULATION.md): a
// binary heap on (time, key) with the engine's per-lane key rule, drained one
// instant at a time — the whole batch of the earliest instant leaves the heap
// before any of it runs, so an event scheduled at the executing instant runs
// after that batch.
class ReferenceQueue {
 public:
  [[nodiscard]] Time now() const { return now_; }

  void schedule_as(std::uint32_t lane, Time t, std::function<void()> fn) {
    if (lane >= seq_.size()) seq_.resize(lane + 1, 0);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(lane) << Engine::kLaneShift) | seq_[lane]++;
    heap_.push_back(Event{t, key, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  void schedule_in_as(std::uint32_t lane, Time delay, std::function<void()> fn) {
    schedule_as(lane, now_ + delay, std::move(fn));
  }

  void run() {
    std::vector<Event> batch;
    while (!heap_.empty()) {
      now_ = heap_.front().time;
      batch.clear();
      while (!heap_.empty() && heap_.front().time == now_) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        batch.push_back(std::move(heap_.back()));
        heap_.pop_back();
      }
      for (auto& ev : batch) ev.fn();
    }
  }

 private:
  struct Event {
    Time time;
    std::uint64_t key;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.key > b.key;
    }
  };
  std::vector<Event> heap_;
  std::vector<std::uint64_t> seq_;
  Time now_ = 0;
};

// A randomized workload of clustered timestamps, same-instant bursts across
// several lanes, and nested rescheduling; returns the execution order.
template <class Scheduler>
std::vector<int> run_random_workload(Scheduler& sched) {
  util::Xoshiro256 rng(99);
  std::vector<int> order;
  int next_id = 0;
  for (int i = 0; i < 2000; ++i) {
    // Coarse times force collisions; occasional far-future outliers
    // exercise the wheel's higher levels and overflow list.
    Time t = static_cast<Time>(rng.uniform(400));
    if (rng.uniform(100) < 3) t += Time{1} << 44;
    const auto lane = static_cast<std::uint32_t>(rng.uniform(4));
    const int id = next_id++;
    sched.schedule_as(lane, t, [&sched, &order, &next_id, id, lane] {
      order.push_back(id);
      if (id % 5 == 0) {
        const int child = next_id++;
        sched.schedule_in_as(lane, static_cast<Time>(id % 7),
                             [&order, child] { order.push_back(child); });
      }
    });
  }
  sched.run();
  return order;
}

TEST(Engine, WheelMatchesHeapOnRandomWorkload) {
  // Property test for the determinism contract: the calendar queue executes
  // the workload in exactly the reference heap's (time, key) order.
  Engine engine;
  ReferenceQueue reference;
  const auto wheel = run_random_workload(engine);
  const auto heap = run_random_workload(reference);
  ASSERT_EQ(wheel.size(), heap.size());
  EXPECT_EQ(wheel, heap);
}

// ----------------------------------------------------------------- Topology

TopologyConfig small_topology() {
  TopologyConfig cfg;
  cfg.vertices = 2000;
  return cfg;
}

TEST(Topology, Deterministic) {
  const auto a = Topology::generate(small_topology(), 1);
  const auto b = Topology::generate(small_topology(), 1);
  for (std::uint32_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.rtt_ms(i, i + 1), b.rtt_ms(i, i + 1));
  }
}

TEST(Topology, RttSymmetricAndClamped) {
  const auto topo = Topology::generate(small_topology(), 2);
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.uniform(topo.vertex_count()));
    const auto v = static_cast<std::uint32_t>(rng.uniform(topo.vertex_count()));
    const double rtt = topo.rtt_ms(u, v);
    EXPECT_DOUBLE_EQ(rtt, topo.rtt_ms(v, u));
    EXPECT_GE(rtt, 8.0);
    EXPECT_LE(rtt, 438.0);
  }
}

TEST(Topology, MatchesTraceStatistics) {
  // Calibration against the IPFS trace the paper replays: RTT in [8, 438] ms
  // with mean ~64 ms (see DESIGN.md substitution table). We accept a band
  // around the trace's mean.
  TopologyConfig cfg;
  cfg.vertices = 4000;
  const auto topo = Topology::generate(cfg, 42);
  util::Xoshiro256 rng(4);
  double sum = 0, mn = 1e9, mx = 0;
  const int pairs = 20000;
  for (int i = 0; i < pairs; ++i) {
    std::uint32_t u = static_cast<std::uint32_t>(rng.uniform(cfg.vertices));
    std::uint32_t v = static_cast<std::uint32_t>(rng.uniform(cfg.vertices));
    if (u == v) continue;
    const double rtt = topo.rtt_ms(u, v);
    sum += rtt;
    mn = std::min(mn, rtt);
    mx = std::max(mx, rtt);
  }
  const double mean = sum / pairs;
  EXPECT_GT(mean, 45.0);
  EXPECT_LT(mean, 85.0);
  EXPECT_LE(mn, 15.0);   // well-connected core exists
  EXPECT_GE(mx, 250.0);  // long tail exists
}

TEST(Topology, OwdIsHalfRtt) {
  const auto topo = Topology::generate(small_topology(), 5);
  EXPECT_EQ(topo.owd(1, 2), from_ms(topo.rtt_ms(1, 2) * 0.5));
}

TEST(Topology, BestVerticesAreBetterThanAverage) {
  const auto topo = Topology::generate(small_topology(), 6);
  const auto best = topo.best_vertices(0.2);
  EXPECT_EQ(best.size(), 400u);
  double best_avg = 0;
  for (const auto v : best) best_avg += topo.avg_rtt_ms(v);
  best_avg /= static_cast<double>(best.size());
  double overall = 0;
  for (std::uint32_t v = 0; v < topo.vertex_count(); v += 10) {
    overall += topo.avg_rtt_ms(v);
  }
  overall /= static_cast<double>(topo.vertex_count() / 10);
  EXPECT_LT(best_avg, overall);
}

TEST(TimeFormat, Conversions) {
  EXPECT_EQ(from_ms(1.5), 1500);
  EXPECT_DOUBLE_EQ(to_ms(2500), 2.5);
  EXPECT_EQ(kSlotDuration, 12 * kSecond);
  EXPECT_EQ(kAttestationDeadline, 4 * kSecond);
}

}  // namespace
}  // namespace pandas::sim
