/// \file test_stream_stat.cpp
/// \brief Streaming-statistics layer (obs/dataset.hpp): Welford updates
///        against closed-form moments, Chan merge exactness and
///        order-determinism, and CI arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "obs/dataset.hpp"
#include "util/rng.hpp"

namespace {

using cim::obs::normal_quantile;
using cim::obs::StreamStat;
using cim::obs::z_for_confidence;

TEST(StreamStat, MatchesClosedFormMoments) {
  // 1..5: mean 3, sample variance 2.5, min 1, max 5.
  StreamStat s;
  for (int x = 1; x <= 5; ++x) s.add(static_cast<double>(x));
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.5), 1e-15);
  EXPECT_NEAR(s.std_error(), std::sqrt(2.5 / 5.0), 1e-15);
}

TEST(StreamStat, EmptyAndSingleton) {
  StreamStat s;
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  // An unestimable CI must never satisfy a convergence target.
  EXPECT_TRUE(std::isinf(s.ci_half_width(1.96)));
  s.add(7.5);
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.5);
  EXPECT_DOUBLE_EQ(s.min, 7.5);
  EXPECT_DOUBLE_EQ(s.max, 7.5);
  EXPECT_TRUE(std::isinf(s.ci_half_width(1.96)));
  s.add(7.5);
  // Degenerate two-sample stream: zero variance, zero CI.
  EXPECT_DOUBLE_EQ(s.ci_half_width(1.96), 0.0);
}

TEST(StreamStat, MergeEmptyIsIdentity) {
  StreamStat a;
  for (int i = 0; i < 10; ++i) a.add(0.1 * i);
  const StreamStat before = a;
  a.merge(StreamStat{});
  EXPECT_EQ(a.n, before.n);
  EXPECT_EQ(a.mean, before.mean);
  EXPECT_EQ(a.m2, before.m2);

  StreamStat empty;
  empty.merge(before);
  EXPECT_EQ(empty.n, before.n);
  EXPECT_EQ(empty.mean, before.mean);
  EXPECT_EQ(empty.m2, before.m2);
  EXPECT_EQ(empty.min, before.min);
  EXPECT_EQ(empty.max, before.max);
}

TEST(StreamStat, ChanMergeMatchesSequentialStatistically) {
  // Chan's merge is exact in exact arithmetic; in floating point it agrees
  // with the sequential accumulation to rounding error.
  cim::util::Rng rng(123);
  std::vector<double> xs(1000);
  for (double& x : xs) x = rng.normal(2.0, 0.5);

  StreamStat seq;
  for (const double x : xs) seq.add(x);

  StreamStat left, right;
  for (std::size_t i = 0; i < xs.size(); ++i)
    (i < xs.size() / 3 ? left : right).add(xs[i]);
  StreamStat merged = left;
  merged.merge(right);

  EXPECT_EQ(merged.n, seq.n);
  EXPECT_NEAR(merged.mean, seq.mean, 1e-12);
  EXPECT_NEAR(merged.m2, seq.m2, 1e-9 * seq.m2);
  EXPECT_EQ(merged.min, seq.min);
  EXPECT_EQ(merged.max, seq.max);
}

TEST(StreamStat, MergeIsDeterministicForFixedOrder) {
  // The campaign engine's contract: folding the same block summaries in
  // the same order yields bit-identical results, run after run.
  cim::util::Rng rng(9);
  std::vector<StreamStat> blocks(16);
  for (StreamStat& b : blocks)
    for (int i = 0; i < 32; ++i) b.add(rng.normal(0.0, 1.0));

  StreamStat fold1, fold2;
  for (const StreamStat& b : blocks) fold1.merge(b);
  for (const StreamStat& b : blocks) fold2.merge(b);
  EXPECT_EQ(fold1.n, fold2.n);
  EXPECT_EQ(fold1.mean, fold2.mean);  // bitwise
  EXPECT_EQ(fold1.m2, fold2.m2);
  EXPECT_EQ(fold1.min, fold2.min);
  EXPECT_EQ(fold1.max, fold2.max);
}

TEST(CiHelpers, NormalQuantileReferenceValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(normal_quantile(0.995), 2.575829304, 1e-6);
  EXPECT_NEAR(normal_quantile(0.025), -1.959963985, 1e-6);
  EXPECT_TRUE(std::isinf(normal_quantile(0.0)));
  EXPECT_TRUE(std::isinf(normal_quantile(1.0)));
}

TEST(CiHelpers, ZForConfidenceIsTwoSided) {
  EXPECT_NEAR(z_for_confidence(0.95), 1.959963985, 1e-6);
  EXPECT_NEAR(z_for_confidence(0.99), 2.575829304, 1e-6);
  EXPECT_NEAR(z_for_confidence(0.6827), 1.0, 1e-3);
}

TEST(CiHelpers, CiHalfWidthFormula) {
  StreamStat s;
  for (int x = 1; x <= 5; ++x) s.add(static_cast<double>(x));
  const double z = 1.96;
  EXPECT_NEAR(s.ci_half_width(z), z * std::sqrt(2.5 / 5.0), 1e-12);
}

}  // namespace
