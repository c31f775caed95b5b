#include "sim/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <limits>
#include <stdexcept>

namespace pandas::sim {

std::string format_time(Time t) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.1f ms", to_ms(t));
  return buf;
}

std::uint64_t Engine::next_key(std::uint32_t lane) {
  if (lane >= lane_seq_.size()) lane_seq_.resize(lane + 1, 0);
  return (static_cast<std::uint64_t>(lane) << kLaneShift) | lane_seq_[lane]++;
}

void Engine::schedule_as(std::uint32_t lane, Time t, Callback fn) {
  schedule_keyed(t, next_key(lane), std::move(fn));
}

void Engine::schedule_keyed(Time t, std::uint64_t key, Callback fn) {
  if (t < now_) {
    throw std::logic_error("Engine::schedule_at: time in the past");
  }
  wheel_.push(t, key, std::move(fn));
  if (profiling_) {
    const std::size_t depth = pending();
    if (depth > profile_.peak_queue_depth) profile_.peak_queue_depth = depth;
  }
}

std::uint64_t Engine::drain_until_(Time limit) {
  std::uint64_t n = 0;
  for (;;) {
    const auto t = wheel_.next_time();
    if (!t || *t > limit) break;
    wheel_.pop_time(*t, bucket_);
    detached_ = bucket_.size();
    now_ = std::max(now_, *t);
    const std::uint64_t epoch = clear_epoch_;
    for (std::size_t k = 0; k < bucket_.size(); ++k) {
      if (clear_epoch_ != epoch) {
        // clear() ran inside a callback: the rest of this instant's events
        // are pending-and-discarded.
        for (std::size_t j = k; j < bucket_.size(); ++j) {
          wheel_.discard(bucket_[j]);
        }
        break;
      }
      Callback fn = wheel_.take(bucket_[k]);
      wheel_.release(bucket_[k]);
      --detached_;
      fn();
      ++n;
    }
    if (clear_epoch_ != epoch) detached_ = 0;
  }
  return n;
}

std::uint64_t Engine::run_until(Time limit) {
  const bool profiled = profiling_;
  std::chrono::steady_clock::time_point wall_start;
  const Time sim_start = now_;
  if (profiled) wall_start = std::chrono::steady_clock::now();
  const std::uint64_t n = drain_until_(limit);
  executed_ += n;
  // Advance the clock to the requested horizon (events beyond it stay
  // queued); after draining to "forever" the clock rests on the last event.
  if (limit != std::numeric_limits<Time>::max()) now_ = limit;
  if (profiled) {
    profile_.wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    profile_.sim_time += now_ - sim_start;
    profile_.events += n;
    profile_.scheduler_allocs = scheduler_allocs();
    profile_.event_capacity = event_capacity();
  }
  return n;
}

void Engine::clear() {
  wheel_.clear();
  detached_ = 0;
  ++clear_epoch_;
}

std::uint64_t Engine::run_realtime(Time duration,
                                   const std::function<void(Time)>& idle) {
  const auto wall_start = std::chrono::steady_clock::now();
  const Time virtual_start = now_;
  std::uint64_t executed = 0;

  auto wall_now = [&]() -> Time {
    return virtual_start +
           std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - wall_start)
               .count();
  };

  while (true) {
    const Time wall = wall_now();
    if (wall >= virtual_start + duration) break;

    // Execute timers that have come due.
    executed += drain_until_(wall);
    now_ = std::max(now_, wall);

    // Sleep/poll until the next timer or for a small bounded interval.
    Time max_wait = virtual_start + duration - wall;
    if (const auto next = wheel_.next_time(); next.has_value()) {
      max_wait = std::min(max_wait, *next - wall);
    }
    max_wait = std::clamp<Time>(max_wait, 0, 20 * kMillisecond);
    if (idle) {
      idle(max_wait);
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(max_wait));
    }
  }
  executed_ += executed;
  return executed;
}

}  // namespace pandas::sim
