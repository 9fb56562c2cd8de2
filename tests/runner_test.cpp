// Tests for the parallel batch experiment runner: ThreadPool execution,
// deterministic seed derivation, submission-order aggregation, exception
// transport, and the headline guarantee — BatchRunner output is
// bit-identical to the serial run for every thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "runner/batch.hpp"
#include "runner/cli.hpp"
#include "runner/thread_pool.hpp"

namespace {

using namespace abw;
using runner::BatchRunner;
using runner::ThreadPool;

// -------------------------------------------------------- thread pool ---

TEST(ThreadPool, RunsEveryJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, WaitIdleBlocksUntilSlowJobsFinish) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 6; ++i)
    pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done.fetch_add(1, std::memory_order_relaxed);
    });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 6);  // no sleeping job may be outstanding
}

TEST(ThreadPool, ZeroThreadRequestStillWorks) {
  ThreadPool pool(0);  // clamped to 1 worker
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> done{0};
  pool.submit([&] { ++done; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 1);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i)
      pool.submit([&] { done.fetch_add(1, std::memory_order_relaxed); });
  }  // destructor must run the backlog, not drop it
  EXPECT_EQ(done.load(), 20);
}

// ---------------------------------------------------- seed derivation ---

TEST(SeedDerivation, SplitmixMatchesReferenceVector) {
  // First output of the canonical splitmix64 stream seeded with 0.
  EXPECT_EQ(runner::splitmix64(0), 0xe220a8397b1dcdafULL);
}

TEST(SeedDerivation, DeterministicDistinctAndBaseSensitive) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    std::uint64_t s = runner::derive_seed(42, i);
    EXPECT_EQ(s, runner::derive_seed(42, i));  // pure function
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across task indices
  EXPECT_NE(runner::derive_seed(1, 7), runner::derive_seed(2, 7));
  // Low-entropy bases must still decorrelate consecutive tasks.
  EXPECT_NE(runner::derive_seed(0, 0) ^ runner::derive_seed(0, 1),
            runner::derive_seed(1, 0) ^ runner::derive_seed(1, 1));
}

// -------------------------------------------------------- batch runner ---

TEST(BatchRunnerTest, ResultsArriveInSubmissionOrder) {
  BatchRunner batch(8);
  // Stagger work so late-submitted tasks finish first.
  auto out = batch.map(32, [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds((32 - i) * 50));
    return i * i;
  });
  ASSERT_EQ(out.size(), 32u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(BatchRunnerTest, EmptyAndSingleBatches) {
  BatchRunner batch(4);
  EXPECT_TRUE(batch.map(0, [](std::size_t i) { return i; }).empty());
  auto one = batch.map(1, [](std::size_t i) { return i + 7; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 7u);
}

TEST(BatchRunnerTest, JobsZeroMeansDefault) {
  ::setenv("ABW_JOBS", "3", 1);
  EXPECT_EQ(BatchRunner(0).jobs(), 3u);
  EXPECT_EQ(runner::default_jobs(), 3u);
  ::unsetenv("ABW_JOBS");
  EXPECT_GE(runner::default_jobs(), 1u);
  EXPECT_EQ(BatchRunner(5).jobs(), 5u);
}

TEST(BatchRunnerTest, MalformedAbwJobsThrows) {
  ::setenv("ABW_JOBS", "banana", 1);
  EXPECT_THROW(runner::default_jobs(), std::invalid_argument);
  ::setenv("ABW_JOBS", "0", 1);
  EXPECT_THROW(runner::default_jobs(), std::invalid_argument);
  // A sign would wrap through unsigned parsing to ~2^64 worker threads.
  ::setenv("ABW_JOBS", "-2", 1);
  EXPECT_THROW(runner::default_jobs(), std::invalid_argument);
  ::setenv("ABW_JOBS", " 4", 1);
  EXPECT_THROW(runner::default_jobs(), std::invalid_argument);
  ::unsetenv("ABW_JOBS");
}

TEST(BatchRunnerTest, ParseJobsFlag) {
  const char* argv1[] = {"bench", "--jobs", "6"};
  EXPECT_EQ(runner::parse_jobs_flag(3, const_cast<char**>(argv1), 2), 6u);
  const char* argv2[] = {"bench", "--jobs=9"};
  EXPECT_EQ(runner::parse_jobs_flag(2, const_cast<char**>(argv2), 2), 9u);
  const char* argv3[] = {"bench"};
  EXPECT_EQ(runner::parse_jobs_flag(1, const_cast<char**>(argv3), 2), 2u);
  const char* argv4[] = {"bench", "--jobs"};
  EXPECT_THROW(runner::parse_jobs_flag(2, const_cast<char**>(argv4), 2),
               std::invalid_argument);
  const char* argv5[] = {"bench", "-j", "nope"};
  EXPECT_THROW(runner::parse_jobs_flag(3, const_cast<char**>(argv5), 2),
               std::invalid_argument);
  const char* argv6[] = {"bench", "--jobs=-1"};
  EXPECT_THROW(runner::parse_jobs_flag(2, const_cast<char**>(argv6), 2),
               std::invalid_argument);
  const char* argv7[] = {"bench", "--jobs", " 4"};
  EXPECT_THROW(runner::parse_jobs_flag(3, const_cast<char**>(argv7), 2),
               std::invalid_argument);
}

TEST(BatchRunnerTest, TaskExceptionPropagatesLowestIndexFirst) {
  BatchRunner batch(4);
  try {
    batch.map(16, [](std::size_t i) -> int {
      if (i == 11) throw std::runtime_error("task 11 failed");
      if (i == 3) throw std::runtime_error("task 3 failed");
      return 0;
    });
    FAIL() << "expected a task exception";
  } catch (const std::runtime_error& e) {
    // The serial run would have hit task 3 first; parallel must agree.
    EXPECT_STREQ(e.what(), "task 3 failed");
  }
}

// ---------------------------------------------- cross-thread determinism ---

// The tentpole guarantee: a measure_ratio_curve_fresh sweep aggregated by
// the BatchRunner is BYTE-identical with 1, 2, and 8 threads.
TEST(BatchDeterminism, RatioCurveFreshIsByteIdenticalAcross1_2_8Threads) {
  core::RatioCurveConfig rc;
  rc.rates_bps = {10e6, 20e6, 30e6, 40e6};
  rc.streams_per_rate = 4;
  rc.packets_per_stream = 20;
  auto make = [](std::uint64_t seed) {
    core::SingleHopConfig cfg;
    cfg.seed = 900 + seed;
    return core::Scenario::single_hop(cfg);
  };

  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  auto c1 = core::measure_ratio_curve_fresh(make, rc, 1);
  for (std::size_t jobs : {2u, 8u}) {
    auto cj = core::measure_ratio_curve_fresh(make, rc, jobs);
    ASSERT_EQ(cj.size(), c1.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < c1.size(); ++i) {
      EXPECT_EQ(bits(cj[i].rate_bps), bits(c1[i].rate_bps)) << "jobs=" << jobs;
      EXPECT_EQ(bits(cj[i].mean_ratio), bits(c1[i].mean_ratio))
          << "jobs=" << jobs << " point " << i;
      EXPECT_EQ(bits(cj[i].std_ratio), bits(c1[i].std_ratio))
          << "jobs=" << jobs << " point " << i;
      EXPECT_EQ(cj[i].streams, c1[i].streams) << "jobs=" << jobs;
    }
  }
}

TEST(BatchDeterminism, DirectSampleReplicationsAreByteIdenticalAcrossThreads) {
  auto run = [](std::size_t jobs) {
    BatchRunner batch(jobs);
    return batch.map_seeded(
        /*count=*/4, /*base_seed=*/7, [](std::size_t, std::uint64_t seed) {
          core::SingleHopConfig cfg;
          cfg.seed = seed;
          core::Scenario sc = core::Scenario::single_hop(cfg);
          return core::collect_direct_samples(
              sc, 50e6, 40e6, 20 * sim::kMillisecond, 1500,
              /*count=*/3, 10 * sim::kMillisecond);
        });
  };
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  auto r1 = run(1);
  ASSERT_EQ(r1.size(), 4u);
  for (std::size_t jobs : {2u, 8u}) {
    auto rj = run(jobs);
    ASSERT_EQ(rj.size(), r1.size());
    for (std::size_t r = 0; r < r1.size(); ++r) {
      ASSERT_EQ(rj[r].size(), r1[r].size()) << "jobs=" << jobs;
      for (std::size_t s = 0; s < r1[r].size(); ++s)
        EXPECT_EQ(bits(rj[r][s]), bits(r1[r][s]))
            << "jobs=" << jobs << " rep " << r << " sample " << s;
    }
  }
}

}  // namespace
