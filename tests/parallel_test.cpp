#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace lp::util {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool{4};
  constexpr std::size_t kTasks = 257;  // not a multiple of the worker count
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run(kTasks, [&](std::size_t task, unsigned worker) {
    EXPECT_LT(worker, pool.size());
    hits[task].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  std::size_t ran = 0;
  pool.run(16, [&](std::size_t, unsigned worker) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(worker, 0u);
    ++ran;  // safe: everything is on the calling thread
  });
  EXPECT_EQ(ran, 16u);
}

TEST(ThreadPool, NestedRunExecutesInlineWithoutDeadlock) {
  ThreadPool pool{2};
  std::atomic<int> inner_total{0};
  pool.run(8, [&](std::size_t, unsigned) {
    // A task body that itself sweeps on the same pool must not deadlock:
    // the nested run executes inline on the current task's thread.
    pool.run(4, [&](std::size_t, unsigned worker) {
      EXPECT_EQ(worker, 0u);
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 4);
}

// Several outside threads sweeping on one pool at once — parallel sweep
// tasks that each plan on the shared pool do exactly this.  Every caller's
// tasks must run exactly once and every call must return.
TEST(ThreadPool, ConcurrentCallersFromOutsideThreadsEachComplete) {
  ThreadPool pool{4};
  constexpr std::size_t kCallers = 6;
  constexpr std::size_t kRounds = 200;
  constexpr std::size_t kTasks = 9;
  std::vector<std::atomic<int>> hits(kCallers * kTasks);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        pool.run(kTasks, [&](std::size_t task, unsigned) {
          hits[c * kTasks + task].fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), static_cast<int>(kRounds)) << i;
  }
}

TEST(ThreadPool, ZeroTasksReturnsImmediately) {
  ThreadPool pool{3};
  bool called = false;
  pool.run(0, [&](std::size_t, unsigned) { called = true; });
  EXPECT_FALSE(called);
}

TEST(TaskSeed, PureAndDistinct) {
  // Same inputs, same seed — no hidden state.
  EXPECT_EQ(task_seed(42, 7), task_seed(42, 7));
  // Pinned bits: every sweep digest derives from this exact mix.
  EXPECT_EQ(task_seed(42, 7), 0xccf635ee9e9e2fa4ULL);
  // Neighboring tasks and neighboring base seeds decorrelate.
  EXPECT_NE(task_seed(42, 7), task_seed(42, 8));
  EXPECT_NE(task_seed(42, 7), task_seed(43, 7));
  // A window of task indices yields all-distinct seeds.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.push_back(task_seed(0xfa11, i));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(ParallelFor, CoversRangeOnSharedPool) {
  constexpr std::size_t kTasks = 100;
  std::vector<std::atomic<int>> hits(kTasks);
  parallel_for(kTasks,
               [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

// The determinism contract: a floating-point reduction whose per-task values
// come from task_seed folds to the exact same bits at every thread count.
TEST(ParallelReduce, BitIdenticalAcrossThreadCounts) {
  constexpr std::size_t kTasks = 512;
  const auto map = [](std::size_t i) {
    Rng rng{task_seed(0x5eed, i)};
    return rng.uniform(0.0, 1.0) / static_cast<double>(i + 1);
  };
  const auto sum = [](double acc, double v) { return acc + v; };

  ThreadPool one{1};
  const double serial = parallel_reduce(kTasks, 0.0, map, sum, &one);
  for (unsigned threads : {2u, 3u, 5u, 8u}) {
    ThreadPool pool{threads};
    const double parallel = parallel_reduce(kTasks, 0.0, map, sum, &pool);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;  // bit-identical
  }
}

// Fold order is part of the contract: a non-commutative reduce sees values
// in ascending task order regardless of which worker produced them.
TEST(ParallelReduce, FoldsInAscendingTaskOrder) {
  ThreadPool pool{4};
  const std::string joined = parallel_reduce(
      std::size_t{10}, std::string{},
      [](std::size_t i) { return std::to_string(i); },
      [](std::string acc, std::string v) { return acc + v; }, &pool);
  EXPECT_EQ(joined, "0123456789");
}

// Resolution order: an explicit count, then LIGHTPATH_THREADS, then the
// shared pool.  The variable is restored so the suite can run under it.
TEST(SweepPool, ExplicitCountThenEnvThenShared) {
  const char* saved = std::getenv("LIGHTPATH_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  ASSERT_EQ(setenv("LIGHTPATH_THREADS", "3", 1), 0);
  {
    std::optional<ThreadPool> local;
    EXPECT_EQ(sweep_pool(2, local).size(), 2u) << "an explicit count wins";
    EXPECT_TRUE(local.has_value());
  }
  {
    std::optional<ThreadPool> local;
    EXPECT_EQ(sweep_pool(0, local).size(), 3u) << "0 consults the environment";
    EXPECT_TRUE(local.has_value());
  }
  ASSERT_EQ(unsetenv("LIGHTPATH_THREADS"), 0);
  {
    std::optional<ThreadPool> local;
    EXPECT_EQ(&sweep_pool(0, local), &ThreadPool::shared());
    EXPECT_FALSE(local.has_value()) << "no private pool without a count";
  }
  if (saved != nullptr) {
    ASSERT_EQ(setenv("LIGHTPATH_THREADS", restore.c_str(), 1), 0);
  }
}

TEST(PairedSweep, GroupsByPointAndArmWithSharedPairOrdinals) {
  struct Run {
    std::size_t point{0};
    bool first_arm{false};
    std::size_t pair{0};
  };
  for (const unsigned threads : {1u, 4u}) {
    const auto out = paired_sweep(
        3, 2, threads,
        [](std::size_t p, bool first, std::size_t pair) { return Run{p, first, pair}; });
    ASSERT_EQ(out.size(), 6u) << "3 points x 2 arms";
    for (std::size_t p = 0; p < 3; ++p) {
      for (std::size_t arm = 0; arm < 2; ++arm) {
        ASSERT_EQ(out[2 * p + arm].size(), 2u);
        for (std::size_t t = 0; t < 2; ++t) {
          const Run& r = out[2 * p + arm][t];
          EXPECT_EQ(r.point, p);
          EXPECT_EQ(r.first_arm, arm == 0);
          EXPECT_EQ(r.pair, p * 2 + t) << "both arms of a trial share its pair ordinal";
        }
      }
    }
  }
}

}  // namespace
}  // namespace lp::util
