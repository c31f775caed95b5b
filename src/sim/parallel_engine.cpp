#include "sim/parallel_engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace pandas::sim {

ParallelEngine::ParallelEngine(std::uint64_t seed, std::uint32_t shards) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Engine>(seed));
  }
  counts_.assign(shards, 0);
  if (shards > 1) pool_ = std::make_unique<util::ThreadPool>(shards - 1);
}

ParallelEngine::~ParallelEngine() = default;

void ParallelEngine::set_lookahead(Time lookahead) {
  if (lookahead < 1) {
    throw std::invalid_argument("ParallelEngine::set_lookahead: must be >= 1");
  }
  lookahead_ = lookahead;
}

void ParallelEngine::set_profiling(bool on) noexcept {
  profiling_ = on;
  for (auto& s : shards_) s->set_profiling(on);
}

std::uint64_t ParallelEngine::executed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->executed();
  return total;
}

std::size_t ParallelEngine::pending() const noexcept {
  std::size_t total = 0;
  for (const auto& s : shards_) total += s->pending();
  return total;
}

std::uint64_t ParallelEngine::scheduler_allocs() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->scheduler_allocs();
  return total;
}

std::size_t ParallelEngine::event_capacity() const noexcept {
  std::size_t total = 0;
  for (const auto& s : shards_) total += s->event_capacity();
  return total;
}

std::uint64_t ParallelEngine::run_until(Time limit) {
  if (shards_.size() == 1) return shards_[0]->run_until(limit);

  const bool profiled = profiling_;
  std::chrono::steady_clock::time_point wall_start;
  const Time sim_start = shards_[0]->now();
  if (profiled) wall_start = std::chrono::steady_clock::now();

  std::uint64_t total = 0;
  for (;;) {
    // The next window's base: the earliest pending event on any shard.
    Time tmin = std::numeric_limits<Time>::max();
    for (auto& s : shards_) {
      if (const auto t = s->next_event_time(); t.has_value()) {
        tmin = std::min(tmin, *t);
      }
    }
    if (tmin == std::numeric_limits<Time>::max() || tmin > limit) break;

    // Safe window [tmin, hi]: no event executing inside it can make another
    // shard's event with time <= hi (cross-shard effects land strictly
    // beyond tmin + lookahead - 1). Same-shard scheduling inside the window
    // is unrestricted — Engine::run_until keeps draining what arrives.
    const Time hi = std::min(limit, tmin + (lookahead_ - 1));
    in_window_ = true;
    // The pool's publish/wait handshake orders the flag writes before and
    // after every worker's execution of the window body.
    pool_->parallel_for(0, shards_.size(), [this, hi](std::size_t s) {
      counts_[s] = shards_[s]->run_until(hi);
    });
    in_window_ = false;
    for (const auto c : counts_) total += c;
    stats_.windows += 1;
    if (lane_source_ != nullptr) {
      stats_.lane_events += lane_source_->commit_lanes(hi);
    }
  }

  // No events <= limit remain anywhere; sync every shard clock to the
  // horizon (mirrors Engine::run_until's clock semantics).
  if (limit != std::numeric_limits<Time>::max()) {
    for (auto& s : shards_) s->run_until(limit);
  }

  if (profiled) {
    wall_seconds_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
    sim_time_ += shards_[0]->now() - sim_start;
  }
  return total;
}

void ParallelEngine::clear() {
  for (auto& s : shards_) s->clear();
  if (lane_source_ != nullptr) lane_source_->clear_lanes();
}

Engine::Profile ParallelEngine::merged_profile() const {
  if (shards_.size() == 1) return shards_[0]->profile();
  Engine::Profile p;
  for (const auto& s : shards_) {
    const auto& sp = s->profile();
    p.peak_queue_depth += sp.peak_queue_depth;
    p.events += sp.events;
    p.scheduler_allocs += sp.scheduler_allocs;
    p.event_capacity += sp.event_capacity;
  }
  p.wall_seconds = wall_seconds_;
  p.sim_time = sim_time_;
  return p;
}

}  // namespace pandas::sim
