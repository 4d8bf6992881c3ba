// Tests for the thread pool and ParallelFor helpers.

#include "support/thread_pool.hpp"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace fairchain {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, SubmitBatchExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 256; ++i) {
    tasks.emplace_back([&counter] { counter.fetch_add(1); });
  }
  pool.SubmitBatch(std::move(tasks));
  pool.Wait();
  EXPECT_EQ(counter.load(), 256);
}

TEST(ThreadPoolTest, SubmitBatchEmptyIsNoop) {
  ThreadPool pool(2);
  pool.SubmitBatch({});
  pool.Wait();  // must not deadlock on a zero-task batch
  SUCCEED();
}

TEST(ThreadPoolTest, SubmitBatchMixesWithSubmit) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.emplace_back([&counter] { counter.fetch_add(1); });
  }
  pool.SubmitBatch(std::move(tasks));
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 12);
}

// A throwing task must not take the process down: Wait rethrows the first
// exception, the queued tail of the batch is dropped, and the pool stays
// usable for the next batch.
TEST(ThreadPoolTest, TaskExceptionPropagatesFromWaitAndCancelsTheRest) {
  ThreadPool pool(1);  // one worker: FIFO order makes the cancel exact
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&ran] { ran.fetch_add(1); });
  tasks.emplace_back([] { throw std::runtime_error("task 1 failed"); });
  for (int i = 0; i < 8; ++i) {
    tasks.emplace_back([&ran] { ran.fetch_add(1); });
  }
  pool.SubmitBatch(std::move(tasks));
  try {
    pool.Wait();
    FAIL() << "Wait did not rethrow the task's exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "task 1 failed");
  }
  EXPECT_EQ(ran.load(), 1);  // the 8 queued behind the throw never ran

  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Wait();  // the error was consumed: no rethrow
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolTest, FirstExceptionWinsAcrossWorkers) {
  ThreadPool pool(4);
  std::vector<std::function<void()>> tasks(
      64, [] { throw std::logic_error("every task fails"); });
  pool.SubmitBatch(std::move(tasks));
  EXPECT_THROW(pool.Wait(), std::logic_error);
}

TEST(ParallelForTest, BodyExceptionPropagates) {
  EXPECT_THROW(ParallelFor(4, 100,
                           [](std::size_t i) {
                             if (i == 57) throw std::out_of_range("57");
                           }),
               std::out_of_range);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  std::vector<int> visits(1000, 0);
  ParallelFor(4, visits.size(), [&visits](std::size_t i) { visits[i] += 1; });
  for (const int v : visits) EXPECT_EQ(v, 1);
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  bool called = false;
  ParallelFor(4, 0, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SingleThreadRunsInline) {
  std::vector<int> visits(50, 0);
  ParallelFor(1, visits.size(), [&visits](std::size_t i) { visits[i] += 1; });
  const int total = std::accumulate(visits.begin(), visits.end(), 0);
  EXPECT_EQ(total, 50);
}

TEST(ParallelForChunkedTest, ChunksCoverRangeDisjointly) {
  const std::size_t count = 997;  // prime: uneven chunks
  std::vector<std::atomic<int>> visits(count);
  ParallelForChunked(8, count, [&visits](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForChunkedTest, MoreThreadsThanItems) {
  std::vector<std::atomic<int>> visits(3);
  ParallelForChunked(16, 3, [&visits](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForChunkedTest, ResultIndependentOfThreadCount) {
  auto run = [](unsigned threads) {
    std::vector<double> out(256);
    ParallelForChunked(threads, out.size(),
                       [&out](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           out[i] = static_cast<double>(i * i);
                         }
                       });
    return out;
  };
  EXPECT_EQ(run(1), run(7));
}

}  // namespace
}  // namespace fairchain
