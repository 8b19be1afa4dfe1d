// Tests for src/support and src/parallel: contracts, RNG determinism, tables,
// thread pool and parallel_for semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace radiocast {
namespace {

TEST(Contracts, ExpectsThrowsContractViolation) {
  EXPECT_THROW(RC_EXPECTS(1 == 2), ContractViolation);
  EXPECT_NO_THROW(RC_EXPECTS(1 == 1));
}

TEST(Contracts, MessageNamesExpressionAndLocation) {
  try {
    RC_EXPECTS_MSG(false, "extra context");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("extra context"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
}

TEST(Contracts, EnsuresAndAssertThrow) {
  EXPECT_THROW(RC_ENSURES(false), ContractViolation);
  EXPECT_THROW(RC_ASSERT(false), ContractViolation);
  EXPECT_THROW(RC_ASSERT_MSG(false, "m"), ContractViolation);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng r(11);
  std::vector<int> buckets(8, 0);
  const int trials = 80000;
  for (int i = 0; i < trials; ++i) ++buckets[r.below(8)];
  for (const int b : buckets) {
    EXPECT_NEAR(b, trials / 8, trials / 40);  // within 20% of expectation
  }
}

TEST(Rng, BetweenInclusive) {
  Rng r(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.between(-3, 3));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), -3);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng r(3);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  r.shuffle(w);
  EXPECT_NE(v, w);  // astronomically unlikely to be equal
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  EXPECT_NE(a.next(), child.next());
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"name", "n"});
  t.row().add("path").add(16);
  t.row().add("grid").add(25);
  const auto s = t.str();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| path"), std::string::npos);
  EXPECT_NE(s.find("| 25"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvOutput) {
  TextTable t({"a", "b"});
  t.row().add(1).add(2.5, 1);
  EXPECT_EQ(t.csv(), "a,b\n1,2.5\n");
}

TEST(Table, ArityMismatchFailsFast) {
  TextTable t({"a", "b"});
  t.row().add("only-one");
  EXPECT_THROW((void)t.str(), ContractViolation);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GE(sw.seconds(), 0.0);
  EXPECT_GE(sw.millis(), sw.seconds());
}

TEST(ThreadPool, RunsAllTasks) {
  par::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  par::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // Pool remains usable after an exception.
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  par::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  par::parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelMap, ResultsInIndexOrder) {
  par::ThreadPool pool(4);
  const auto out =
      par::parallel_map(pool, 257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  par::ThreadPool pool(2);
  bool touched = false;
  par::parallel_for(pool, 0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, TwoCallersOnOneWorkerBothFinish) {
  par::ThreadPool pool(1);
  std::vector<std::atomic<int>> a(500);
  std::vector<std::atomic<int>> b(500);
  std::thread other([&] {
    par::parallel_for(pool, b.size(), [&](std::size_t i) { ++b[i]; });
  });
  par::parallel_for(pool, a.size(), [&](std::size_t i) { ++a[i]; });
  other.join();
  for (const auto& h : a) EXPECT_EQ(h.load(), 1);
  for (const auto& h : b) EXPECT_EQ(h.load(), 1);
}

// A call returns once its own indices are done, even while another
// caller's body still occupies a worker.
TEST(ParallelFor, CompletesWithoutWaitingForOtherCallers) {
  par::ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool blocker_started = false;
  bool first_done = false;
  bool released_in_time = false;
  std::thread blocker([&] {
    par::parallel_for(pool, 1, [&](std::size_t) {
      std::unique_lock<std::mutex> lock(mu);
      blocker_started = true;
      cv.notify_all();
      released_in_time = cv.wait_for(lock, std::chrono::seconds(30),
                                     [&] { return first_done; });
    });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocker_started; });
  }
  std::vector<std::atomic<int>> hits(100);
  par::parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  {
    const std::lock_guard<std::mutex> lock(mu);
    first_done = true;
  }
  cv.notify_all();
  blocker.join();
  EXPECT_TRUE(released_in_time);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EveryIndexRunsOnceUnderContention) {
  par::ThreadPool pool(2);
  constexpr std::size_t kCallers = 4;
  const std::size_t grains[kCallers] = {1, 3, 7, 64};
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(2000);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 5; ++round) {
        par::parallel_for(
            pool, hits[c].size(), [&](std::size_t i) { ++hits[c][i]; },
            grains[c]);
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& h : hits) {
    for (const auto& count : h) EXPECT_EQ(count.load(), 5);
  }
}

TEST(ParallelFor, ExceptionReachesOnlyItsOwnCaller) {
  par::ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> hits(300);
    bool other_threw = false;
    std::thread other([&] {
      try {
        par::parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
      } catch (...) {
        other_threw = true;
      }
    });
    const auto boom = [](std::size_t i) {
      if (i == 5) throw std::runtime_error("boom");
    };
    EXPECT_THROW(par::parallel_for(pool, 300, boom), std::runtime_error);
    other.join();
    EXPECT_FALSE(other_threw);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

}  // namespace
}  // namespace radiocast
