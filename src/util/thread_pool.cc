#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

#include "src/util/str.h"

namespace webcc {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) {
      return;  // idempotent: an earlier Shutdown already joined the workers
    }
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // stop requested and queue drained
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    try {
      task();
    } catch (...) {
      std::unique_lock<std::mutex> lock(mu_);
      if (!first_error_) {
        first_error_ = std::current_exception();
      }
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) {
        idle_cv_.notify_all();
      }
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) {
    return;
  }
  if (size() <= 1 || n == 1) {
    // Inline serial execution: same body, same order, no thread handoff.
    for (size_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }
  // Dynamic index claiming: each worker task drains the shared cursor, so an
  // expensive index does not stall the others behind a static partition.
  auto cursor = std::make_shared<std::atomic<size_t>>(0);
  const size_t fanout = std::min(size(), n);
  for (size_t w = 0; w < fanout; ++w) {
    Submit([cursor, n, &body] {
      while (true) {
        const size_t i = cursor->fetch_add(1, std::memory_order_relaxed);
        if (i >= n) {
          return;
        }
        body(i);
      }
    });
  }
  Wait();
}

ElasticThreadPool::ElasticThreadPool(const Options& options) : options_([&options] {
  Options clamped = options;
  if (clamped.max_threads == 0) {
    clamped.max_threads = 1;
  }
  if (clamped.min_threads > clamped.max_threads) {
    clamped.min_threads = clamped.max_threads;
  }
  if (clamped.idle_timeout_ms < 1) {
    clamped.idle_timeout_ms = 1;
  }
  return clamped;
}()) {
  std::unique_lock<std::mutex> lock(mu_);
  workers_.reserve(options_.max_threads);
  for (size_t i = 0; i < options_.min_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
    ++live_threads_;
  }
  peak_threads_ = live_threads_;
}

ElasticThreadPool::~ElasticThreadPool() { Shutdown(); }

void ElasticThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    WEBCC_CHECK(!stop_) << "ElasticThreadPool::Submit after Shutdown";
    tasks_.push_back(std::move(task));
    ++in_flight_;
    // Grow: every live worker is busy and we are under the ceiling. The
    // spawn happens under mu_, so census and vector stay consistent.
    if (idle_threads_ == 0 && live_threads_ < options_.max_threads) {
      workers_.emplace_back([this] { WorkerLoop(); });
      ++live_threads_;
      peak_threads_ = std::max(peak_threads_, live_threads_);
    }
  }
  work_cv_.notify_one();
}

void ElasticThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ElasticThreadPool::Shutdown() {
  std::vector<std::thread> to_join;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (joined_) {
      return;  // idempotent: an earlier Shutdown already joined the workers
    }
    stop_ = true;
    joined_ = true;
    to_join.swap(workers_);
  }
  work_cv_.notify_all();
  for (std::thread& worker : to_join) {
    worker.join();
  }
}

size_t ElasticThreadPool::threads() const {
  std::unique_lock<std::mutex> lock(mu_);
  return live_threads_;
}

size_t ElasticThreadPool::peak_threads() const {
  std::unique_lock<std::mutex> lock(mu_);
  return peak_threads_;
}

void ElasticThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++idle_threads_;
      while (!stop_ && tasks_.empty()) {
        if (live_threads_ > options_.min_threads) {
          // Surplus worker: bounded wait, exit on a quiet timeout. The
          // predicate re-check below keeps spurious wakeups harmless.
          const auto status =
              work_cv_.wait_for(lock, std::chrono::milliseconds(options_.idle_timeout_ms));
          if (status == std::cv_status::timeout && tasks_.empty() && !stop_ &&
              live_threads_ > options_.min_threads) {
            --idle_threads_;
            --live_threads_;
            return;  // the joinable std::thread is reaped by Shutdown
          }
        } else {
          work_cv_.wait(lock);
        }
      }
      --idle_threads_;
      if (tasks_.empty()) {
        --live_threads_;
        return;  // stop requested and queue drained
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    try {
      task();
    } catch (...) {
      std::unique_lock<std::mutex> lock(mu_);
      if (!first_error_) {
        first_error_ = std::current_exception();
      }
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) {
        idle_cv_.notify_all();
      }
    }
  }
}

size_t HardwareJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t ResolveJobs(size_t requested) {
  if (requested != 0) {
    return requested;
  }
  if (const char* env = std::getenv("WEBCC_JOBS")) {
    const std::optional<int64_t> parsed = ParseInt(env);
    if (parsed && *parsed >= 1 && static_cast<uint64_t>(*parsed) <= kMaxJobs) {
      return static_cast<size_t>(*parsed);
    }
  }
  return HardwareJobs();
}

}  // namespace webcc
