#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace tracer {
namespace parallel {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitAll();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitAllOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.WaitAll();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.WaitAll();
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRejected) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([&ran] { ran.fetch_add(1); }));
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.Shutdown();
  pool.Shutdown();
  SUCCEED();
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(pool.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        ran.fetch_add(1);
      }));
    }
  }  // destructor: every accepted task must still run before teardown
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolTest, ConcurrentSubmitAndShutdownHammer) {
  // Regression for the enqueue-after-stop race: submitter threads hammer
  // Submit while the owner calls Shutdown. Every Submit must either run its
  // task to completion or return false — no lost task, no hang, no
  // late-queued task with nobody left to run it.
  for (int round = 0; round < 25; ++round) {
    ThreadPool pool(3);
    std::atomic<int> accepted{0};
    std::atomic<int> ran{0};
    std::vector<std::thread> submitters;
    submitters.reserve(4);
    for (int s = 0; s < 4; ++s) {
      submitters.emplace_back([&pool, &accepted, &ran] {
        for (int i = 0; i < 64; ++i) {
          if (pool.Submit([&ran] { ran.fetch_add(1); })) {
            accepted.fetch_add(1);
          } else {
            return;  // pool stopped; later submits would also be rejected
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    pool.Shutdown();  // races the submitters by design
    for (std::thread& t : submitters) t.join();
    EXPECT_EQ(ran.load(), accepted.load()) << "round " << round;
  }
}

class ThreadBudgetGuard {
 public:
  ThreadBudgetGuard() : prev_(MaxThreads()) {}
  ~ThreadBudgetGuard() { SetMaxThreads(prev_); }

 private:
  int prev_;
};

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadBudgetGuard guard;
  SetMaxThreads(4);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  ParallelFor(10, kN, [&counts](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      counts[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyRangeNeverInvokesBody) {
  std::atomic<int> calls{0};
  ParallelFor(1, 0, [&calls](int64_t, int64_t) { calls.fetch_add(1); });
  ParallelFor(1, -5, [&calls](int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, ChunkCountRespectsGrainAndThreadBudget) {
  ThreadBudgetGuard guard;
  SetMaxThreads(8);
  std::atomic<int> calls{0};
  std::atomic<int64_t> covered{0};
  // ceil(100 / 30) = 4 chunks even though 8 threads are allowed.
  ParallelFor(30, 100, [&](int64_t begin, int64_t end) {
    calls.fetch_add(1);
    covered.fetch_add(end - begin);
  });
  EXPECT_LE(calls.load(), 4);
  EXPECT_EQ(covered.load(), 100);
  // A range below the grain runs as one inline call.
  calls.store(0);
  ParallelFor(1000, 100, [&calls](int64_t begin, int64_t end) {
    calls.fetch_add(1);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 100);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelForTest, NestedCallsDegradeToSerialWithoutDeadlock) {
  // An inner ParallelFor issued from inside a chunk must run serially
  // instead of queueing behind its blocked parent on the shared pool. A
  // regression here deadlocks, which ctest's timeout converts to a failure.
  ThreadBudgetGuard guard;
  SetMaxThreads(4);
  std::atomic<int> total{0};
  ParallelFor(1, 4, [&total](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      ParallelFor(1, 100, [&total](int64_t b, int64_t e) {
        total.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  EXPECT_EQ(total.load(), 400);
}

TEST(ParallelForTest, ConcurrentCallersShareThePool) {
  // Multiple caller threads interleave their chunks on SharedPool(); each
  // call must still cover exactly its own range (per-call latch, not a
  // pool-global wait).
  ThreadBudgetGuard guard;
  SetMaxThreads(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 50;
  constexpr int kN = 256;
  std::vector<std::thread> callers;
  std::vector<int> failures(kCallers, 0);
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&failures, t] {
      std::vector<std::atomic<int>> counts(kN);
      for (int round = 0; round < kRounds; ++round) {
        for (auto& c : counts) c.store(0);
        ParallelFor(8, kN, [&counts](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            counts[static_cast<size_t>(i)].fetch_add(1);
          }
        });
        for (int i = 0; i < kN; ++i) {
          if (counts[i].load() != 1) ++failures[t];
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int t = 0; t < kCallers; ++t) {
    EXPECT_EQ(failures[t], 0) << "caller " << t;
  }
}

TEST(ParallelForTest, SetMaxThreadsRoundTrips) {
  ThreadBudgetGuard guard;
  SetMaxThreads(3);
  EXPECT_EQ(MaxThreads(), 3);
  SetMaxThreads(1);
  EXPECT_EQ(MaxThreads(), 1);
}

}  // namespace
}  // namespace parallel
}  // namespace tracer
