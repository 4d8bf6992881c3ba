// A fixed-size worker pool with a ParallelFor convenience wrapper.
//
// The Monte Carlo engine shards replications across workers; determinism is
// preserved because each replication derives its RNG stream from the
// replication index, never from the executing thread.
//
// Exceptions: a task that throws does not take the process down.  The pool
// records the first exception, drops every task still queued (tasks already
// running finish), and Wait() rethrows it on the caller's thread.

#ifndef FAIRCHAIN_SUPPORT_THREAD_POOL_HPP_
#define FAIRCHAIN_SUPPORT_THREAD_POOL_HPP_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fairchain {

/// Fixed pool of worker threads executing queued tasks FIFO.
class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(unsigned threads);

  /// Drains outstanding tasks and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Enqueues `tasks` under a single lock acquisition and wakes every
  /// worker once.  Much cheaper than N Submit calls when dispatching a
  /// large job grid (see bench/micro_perf.cpp for the measured difference);
  /// the campaign runner uses this to launch whole campaigns at once.
  void SubmitBatch(std::vector<std::function<void()>> tasks);

  /// Blocks until every submitted task has finished or been dropped, then
  /// rethrows the first exception a task raised since the last Wait (the
  /// pool stays usable afterwards).
  void Wait();

  /// Number of worker threads.
  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void WorkerLoop(unsigned worker);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  // Bumped each time the pool drains; workers restart their per-batch task
  // counts (the pool-task fault site's count) when it moves.
  std::uint64_t batch_ = 0;
  std::exception_ptr error_;
  bool shutting_down_ = false;
};

/// Runs `body(i)` for i in [0, count) across `threads` workers in contiguous
/// chunks, blocking until completion.  With threads <= 1 runs inline.  An
/// exception from `body` propagates to the caller.
void ParallelFor(unsigned threads, std::size_t count,
                 const std::function<void(std::size_t)>& body);

/// Chunked variant: `body(begin, end)` over disjoint ranges covering
/// [0, count).  Lower dispatch overhead for tight per-item loops.
void ParallelForChunked(
    unsigned threads, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace fairchain

#endif  // FAIRCHAIN_SUPPORT_THREAD_POOL_HPP_
