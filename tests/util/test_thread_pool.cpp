/// \file test_thread_pool.cpp
/// \brief ThreadPool contract tests: coverage of the index space, inline
///        degenerate cases, exception propagation, nesting, CIM_THREADS
///        parsing, and the determinism guarantee the rest of the repo
///        builds on (bit-identical results for any pool size).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using cim::util::Rng;
using cim::util::ThreadPool;

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<int> hits(n, 0);
  // Each index is touched by exactly one body call, so plain ints suffice.
  pool.parallel_for(0, n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, NonZeroBeginCoversOnlyTheRange) {
  ThreadPool pool(3);
  std::vector<int> hits(20, 0);
  pool.parallel_for(5, 15, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < 20; ++i)
    EXPECT_EQ(hits[i], i >= 5 && i < 15 ? 1 : 0);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(7, 7, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SizeOnePoolHasNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<int> hits(100, 0);
  pool.parallel_for(0, 100, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPool, ThreadCountMatchesRequest) {
  EXPECT_EQ(ThreadPool(2).thread_count(), 2u);
  EXPECT_EQ(ThreadPool(8).thread_count(), 8u);
  EXPECT_GE(ThreadPool(0).thread_count(), 1u);  // 0 -> default_threads()
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives a throwing job and runs the next one normally.
  std::atomic<int> calls{0};
  pool.parallel_for(0, 50, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 50);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    pool.parallel_for(0, 4, [&](std::size_t) { ++calls; });
  });
  EXPECT_EQ(calls.load(), 16);
}

TEST(ThreadPool, ParseThreads) {
  EXPECT_EQ(ThreadPool::parse_threads("8"), 8u);
  EXPECT_EQ(ThreadPool::parse_threads("1"), 1u);
  EXPECT_EQ(ThreadPool::parse_threads("abc"), 0u);
  EXPECT_EQ(ThreadPool::parse_threads(""), 0u);
  EXPECT_EQ(ThreadPool::parse_threads(nullptr), 0u);
  EXPECT_EQ(ThreadPool::parse_threads("0"), 0u);
  EXPECT_EQ(ThreadPool::parse_threads("5000"), 1024u);  // clamped
  // Decimal digits only, so -1 is malformed rather than wrapped to the
  // clamp; each malformed value prints one stderr line naming CIM_THREADS.
  for (const char* bad : {"-1", "+4", "4 ", "1e3", "0x10",
                          "18446744073709551616"}) {
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(ThreadPool::parse_threads(bad), 0u) << bad;
    EXPECT_NE(::testing::internal::GetCapturedStderr().find("CIM_THREADS"),
              std::string::npos)
        << bad;
  }
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  auto& pool = ThreadPool::global();
  EXPECT_GE(pool.thread_count(), 1u);
  std::vector<int> hits(64, 0);
  pool.parallel_for(0, 64, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

// The determinism contract: when the body derives randomness from the index
// via counter-based stream splitting, the aggregate is bit-identical for any
// pool size.
TEST(ThreadPool, StreamSplitMonteCarloIsPoolSizeInvariant) {
  const auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> draws(256, 0.0);
    pool.parallel_for(0, draws.size(), [&](std::size_t i) {
      Rng rng = Rng::stream(42, i);
      double acc = 0.0;
      for (int k = 0; k < 100; ++k) acc += rng.uniform(0.0, 1.0);
      draws[i] = acc;
    });
    return draws;
  };
  const auto ref = run(1);
  EXPECT_EQ(ref, run(2));
  EXPECT_EQ(ref, run(8));
}

TEST(RngStream, StreamsAreStableAndDistinct) {
  // Pure function of (seed, index): same args, same stream.
  EXPECT_EQ(Rng::stream_seed(7, 3), Rng::stream_seed(7, 3));
  // Different indices and different seeds give different streams.
  EXPECT_NE(Rng::stream_seed(7, 3), Rng::stream_seed(7, 4));
  EXPECT_NE(Rng::stream_seed(7, 3), Rng::stream_seed(8, 3));
  // Adjacent streams decorrelate: first draws differ.
  Rng a = Rng::stream(7, 0);
  Rng b = Rng::stream(7, 1);
  EXPECT_NE(a(), b());
}

}  // namespace
