#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace tribvote::util {
namespace {

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroTasks) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ParallelForRethrows) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(8,
                                 [&ran](std::size_t i) {
                                   if (i == 3) {
                                     throw std::logic_error("task failed");
                                   }
                                   ++ran;
                                 }),
               std::logic_error);
  // The throw surfaces only after every other task has finished, so none
  // of them outlives the call (and the lambda it references).
  EXPECT_EQ(ran.load(), 7);
}

TEST(ThreadPool, ManyTasksAccumulate) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 100; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, SingleThreadIsSequentialSafe) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  std::vector<int> expected(20);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // FIFO on one worker
}

}  // namespace
}  // namespace tribvote::util
