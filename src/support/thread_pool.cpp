#include "support/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "support/fault_injection.hpp"

namespace fairchain {

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned count = std::max(1u, threads);
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::SubmitBatch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (auto& task : tasks) tasks_.push(std::move(task));
    in_flight_ += tasks.size();
  }
  task_available_.notify_all();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void ThreadPool::WorkerLoop(unsigned worker) {
  std::uint64_t batch = 0;
  std::uint64_t finished = 0;  // tasks this worker ran in `batch`
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
      if (batch != batch_) {
        batch = batch_;
        finished = 0;
      }
    }
    try {
      task();
      // Fault site "pool-task": index = worker, count = tasks this worker
      // has finished in the current batch.  A stall pins the worker while
      // its siblings drain the shared queue; a throw exercises the
      // propagation below.
      MaybeInjectFault("pool-task", worker, ++finished);
    } catch (...) {
      // Cancel the rest of the batch: queued tasks never start (and are
      // destroyed after the lock is released).
      std::queue<std::function<void()>> dropped;
      std::unique_lock<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
      in_flight_ -= tasks_.size();
      dropped.swap(tasks_);
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) {
        ++batch_;
        all_done_.notify_all();
      }
    }
  }
}

void ParallelFor(unsigned threads, std::size_t count,
                 const std::function<void(std::size_t)>& body) {
  ParallelForChunked(threads, count,
                     [&body](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) body(i);
                     });
}

void ParallelForChunked(
    unsigned threads, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  if (threads <= 1 || count == 1) {
    body(0, count);
    return;
  }
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads, count));
  ThreadPool pool(workers);
  const std::size_t chunk = (count + workers - 1) / workers;
  for (std::size_t begin = 0; begin < count; begin += chunk) {
    const std::size_t end = std::min(count, begin + chunk);
    pool.Submit([&body, begin, end] { body(begin, end); });
  }
  pool.Wait();
}

}  // namespace fairchain
