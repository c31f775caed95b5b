#include "util/thread_pool.h"

#include <stdexcept>

namespace pandas::util {

namespace {
thread_local bool inside_parallel_for = false;
/// Set once per worker thread, for the dispatch guard in parallel_for.
thread_local bool pool_worker_thread = false;
}

bool ThreadPool::current_thread_is_worker() noexcept {
  return pool_worker_thread;
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 1 ? hw - 1 : 0;
  }
  threads_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::run_range(const std::function<void(std::size_t)>& fn) {
  const std::size_t end = end_.load(std::memory_order_acquire);
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= end) return;
    fn(i);
  }
}

void ThreadPool::worker_loop() {
  // A job may itself call parallel_for; from a worker that must run inline,
  // or the worker would republish the shared job state it is executing and
  // then wait for active_ == 0 while holding active_ > 0.
  pool_worker_thread = true;
  inside_parallel_for = true;
  std::uint64_t seen = 0;
  for (;;) {
    std::function<void(std::size_t)> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;  // copy under the lock: stays valid past the caller's exit
      ++active_;
    }
    run_range(job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  // No workers, single-iteration loops, or nested use: the plain loop is
  // both correct and faster than waking the pool.
  if (threads_.empty() || end - begin == 1 || inside_parallel_for) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  if (pool_worker_thread) {
    // Unreachable while the inline fallback above stands (workers run with
    // inside_parallel_for permanently set). Guarded anyway: blocking
    // dispatch from a worker deadlocks on done_cv_, so fail loudly instead.
    throw std::logic_error(
        "ThreadPool::parallel_for: blocking dispatch from a pool worker");
  }
  inside_parallel_for = true;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // A worker that woke too late for the previous job may still be inside
    // it, finding no index left. Resetting the counters under it would let
    // it run that old job on this job's indices, so it leaves first.
    done_cv_.wait(lock, [&] { return active_ == 0; });
    job_ = fn;
    next_.store(begin, std::memory_order_relaxed);
    end_.store(end, std::memory_order_release);
    ++generation_;
  }
  work_cv_.notify_all();
  run_range(fn);  // the caller participates
  {
    // Workers increment active_ before claiming any index, so active_ == 0
    // with next_ exhausted means every claimed iteration has finished.
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return active_ == 0; });
  }
  inside_parallel_for = false;
}

}  // namespace pandas::util
