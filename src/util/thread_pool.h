// A small fixed-size thread pool for embarrassingly parallel work.
//
// webcc's simulations are single-threaded by design (determinism is worth
// more than parallelism inside one run), but parameter sweeps replay the
// same workload once per point, and those runs share no mutable state. The
// pool exists to run such independent jobs concurrently; the sweep executor
// (src/core/sweep_runner.h) layers deterministic result ordering on top.
//
// Design notes: one mutex + FIFO queue + two condition variables. Workers
// never touch the host clock or any randomness, so the determinism lint has
// nothing to waive here; all nondeterminism is confined to *scheduling
// order*, which callers must make irrelevant (write results by index, not by
// completion order). The first exception thrown by a task is captured and
// rethrown from Wait() on the submitting thread.

#ifndef WEBCC_SRC_UTIL_THREAD_POOL_H_
#define WEBCC_SRC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/check.h"

namespace webcc {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);

  // Drains all submitted tasks, then joins the workers (via Shutdown).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Stops accepting progress guarantees, drains every already-submitted
  // task, and joins the workers. Idempotent: the second and later calls
  // (including the destructor's) are no-ops. Must not be called from a
  // pool task (a worker cannot join itself). An exception thrown by a task
  // during the drain is still captured for a later Wait().
  void Shutdown();

  [[nodiscard]] size_t size() const { return workers_.size(); }

  // Enqueues a task. Thread-safe; tasks may themselves call Submit.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished. If any task threw, the
  // first captured exception is rethrown here (subsequent ones are dropped).
  void Wait();

  // Runs body(0..n-1) across the pool, blocking until all indices are done.
  // Indices are claimed dynamically (an atomic cursor), so long and short
  // iterations balance; callers keep determinism by writing output[i] from
  // body(i). With a single worker the body runs inline on this thread.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

 private:
  void WorkerLoop();

  std::mutex mu_;  // guards: tasks_, in_flight_, stop_, first_error_
  std::condition_variable work_cv_;  // signalled when a task or stop arrives
  std::condition_variable idle_cv_;  // signalled when in_flight_ hits zero
  std::deque<std::function<void()>> tasks_ WEBCC_GUARDED_BY(mu_);
  size_t in_flight_ WEBCC_GUARDED_BY(mu_) = 0;  // queued + currently running
  bool stop_ WEBCC_GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ WEBCC_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;  // written in the ctor only, then const
};

// A thread pool whose worker census tracks offered load (cf. fs123's
// elastic threadpool): Submit spawns a worker when no idle one exists and
// the census is below max_threads; a worker idle longer than the timeout
// exits, down to min_threads. The serve frontend uses this so a mostly-idle
// proxy costs min_threads of stack while an overload burst still fans out.
//
// Same contracts as ThreadPool: FIFO queue, first task exception rethrown
// from Wait(), Shutdown() drains then joins and is idempotent. Exited
// workers leave their joinable std::thread behind until Shutdown reaps it —
// census bookkeeping is by live-count, not vector size.
class ElasticThreadPool {
 public:
  struct Options {
    size_t min_threads = 1;
    size_t max_threads = 8;
    // How long a surplus worker (census > min_threads) waits for work
    // before exiting.
    int64_t idle_timeout_ms = 250;
  };

  explicit ElasticThreadPool(const Options& options);
  ~ElasticThreadPool();  // Shutdown()

  ElasticThreadPool(const ElasticThreadPool&) = delete;
  ElasticThreadPool& operator=(const ElasticThreadPool&) = delete;

  // Enqueues a task, growing the pool if every live worker is busy.
  void Submit(std::function<void()> task);

  // Blocks until all submitted tasks finished; rethrows the first captured
  // task exception.
  void Wait();

  // Drains queued tasks, then joins every worker ever spawned. Idempotent;
  // called by the destructor. Must not be called from a pool task.
  void Shutdown();

  // Live worker census / high-water mark (metrics for the serve snapshot).
  [[nodiscard]] size_t threads() const;
  [[nodiscard]] size_t peak_threads() const;

 private:
  void WorkerLoop();

  const Options options_;
  mutable std::mutex mu_;  // guards: everything below
  std::condition_variable work_cv_;  // a task, stop, or idle-timeout check
  std::condition_variable idle_cv_;  // in_flight_ hit zero
  std::deque<std::function<void()>> tasks_ WEBCC_GUARDED_BY(mu_);
  std::vector<std::thread> workers_ WEBCC_GUARDED_BY(mu_);
  size_t live_threads_ WEBCC_GUARDED_BY(mu_) = 0;
  size_t idle_threads_ WEBCC_GUARDED_BY(mu_) = 0;
  size_t peak_threads_ WEBCC_GUARDED_BY(mu_) = 0;
  size_t in_flight_ WEBCC_GUARDED_BY(mu_) = 0;  // queued + running
  bool stop_ WEBCC_GUARDED_BY(mu_) = false;
  bool joined_ WEBCC_GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ WEBCC_GUARDED_BY(mu_);
};

// Number of useful concurrent jobs on this host (>= 1).
size_t HardwareJobs();

// Largest worker count any --jobs flag or WEBCC_JOBS may request.
inline constexpr size_t kMaxJobs = 4096;

// Resolves a jobs request: 0 means "auto" — the WEBCC_JOBS environment
// variable if it is an integer in [1, kMaxJobs], otherwise HardwareJobs().
size_t ResolveJobs(size_t requested);

}  // namespace webcc

#endif  // WEBCC_SRC_UTIL_THREAD_POOL_H_
