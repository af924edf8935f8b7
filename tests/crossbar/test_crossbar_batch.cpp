/// \file test_crossbar_batch.cpp
/// \brief Batched VMM contract tests: shape validation, the bit-identical
///        determinism guarantee across pool sizes, agreement with the ideal
///        VMM, and conductance-cache invalidation on array mutation.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using cim::crossbar::Crossbar;
using cim::crossbar::CrossbarConfig;
using cim::util::Matrix;
using cim::util::Rng;
using cim::util::ThreadPool;

Crossbar make_xbar(std::uint64_t seed, std::size_t n = 24) {
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = n;
  cfg.levels = 8;
  cfg.verified_writes = false;
  cfg.seed = seed;
  Crossbar xbar(cfg);
  Rng rng(seed + 1);
  Matrix lv(n, n);
  for (auto& v : lv.flat()) v = static_cast<double>(rng.uniform_int(8));
  xbar.program_levels(lv);
  return xbar;
}

Matrix make_batch(std::size_t batch, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix v(batch, n);
  for (auto& x : v.flat()) x = rng.uniform(0.0, 0.3);
  return v;
}

TEST(CrossbarBatch, RejectsWrongInputWidth) {
  auto xbar = make_xbar(3);
  Matrix bad(4, 23);  // array is 24 wide
  Matrix out;
  EXPECT_THROW(xbar.vmm_batch(bad, out, nullptr), std::invalid_argument);
}

TEST(CrossbarBatch, EmptyBatchProducesEmptyOutput) {
  auto xbar = make_xbar(3);
  Matrix v(0, 24);
  Matrix out;
  xbar.vmm_batch(v, out, nullptr);
  EXPECT_EQ(out.rows(), 0u);
}

// The engine's core guarantee: identical crossbars fed the same batch give
// bitwise-identical outputs for any pool size, including the serial path.
TEST(CrossbarBatch, BitIdenticalAcrossPoolSizes) {
  const auto v = make_batch(32, 24, 9);
  ThreadPool pool1(1), pool2(2), pool8(8);

  auto ref_xbar = make_xbar(5);
  Matrix ref;
  ref_xbar.vmm_batch(v, ref, &pool1);

  auto x2 = make_xbar(5);
  Matrix out2;
  x2.vmm_batch(v, out2, &pool2);

  auto x8 = make_xbar(5);
  Matrix out8;
  x8.vmm_batch(v, out8, &pool8);

  auto xs = make_xbar(5);
  Matrix outs;
  xs.vmm_batch(v, outs, nullptr);  // serial fallback path

  ASSERT_EQ(ref.rows(), 32u);
  ASSERT_EQ(ref.cols(), 24u);
  for (std::size_t i = 0; i < ref.flat().size(); ++i) {
    EXPECT_EQ(ref.flat()[i], out2.flat()[i]) << "pool=2 flat index " << i;
    EXPECT_EQ(ref.flat()[i], out8.flat()[i]) << "pool=8 flat index " << i;
    EXPECT_EQ(ref.flat()[i], outs.flat()[i]) << "serial flat index " << i;
  }
}

TEST(CrossbarBatch, TracksIdealVmm) {
  auto xbar = make_xbar(7);
  const auto v = make_batch(16, 24, 11);
  Matrix out;
  ThreadPool pool(2);
  xbar.vmm_batch(v, out, &pool);

  double rel_err_sum = 0.0;
  std::size_t n_terms = 0;
  for (std::size_t s = 0; s < v.rows(); ++s) {
    const auto row = v.row(s);
    const auto ideal =
        xbar.ideal_vmm(std::vector<double>(row.begin(), row.end()));
    for (std::size_t c = 0; c < ideal.size(); ++c) {
      if (std::abs(ideal[c]) < 1.0) continue;
      rel_err_sum += std::abs(out(s, c) - ideal[c]) / std::abs(ideal[c]);
      ++n_terms;
    }
  }
  ASSERT_GT(n_terms, 0u);
  EXPECT_LT(rel_err_sum / static_cast<double>(n_terms), 0.25);
}

TEST(CrossbarBatch, StatsMatchSequentialAccounting) {
  auto xbar = make_xbar(13);
  xbar.reset_stats();
  const auto v = make_batch(10, 24, 15);
  Matrix out;
  xbar.vmm_batch(v, out, nullptr);
  EXPECT_EQ(xbar.stats().vmm_ops, 10u);
}

// Mutating the array between batches must invalidate the cached effective
// conductances — stale caches would silently return the old matrix.
TEST(CrossbarBatch, CacheInvalidatedByProgramAndFaults) {
  auto xbar = make_xbar(17);
  const auto v = make_batch(4, 24, 19);
  Matrix before;
  xbar.vmm_batch(v, before, nullptr);

  // Reprogram a column of cells to the opposite extreme.
  const auto& sch = xbar.scheme();
  for (std::size_t r = 0; r < 24; ++r)
    xbar.program_cell(r, 0, sch.level_conductance_us(7));
  Matrix after_prog;
  xbar.vmm_batch(v, after_prog, nullptr);
  double delta = 0.0;
  for (std::size_t s = 0; s < 4; ++s)
    delta += std::abs(after_prog(s, 0) - before(s, 0));
  EXPECT_GT(delta, 1e-9) << "reprogramming did not reach the batch path";

  // Fault injection must equally invalidate the cache.
  cim::fault::FaultMap map(24, 24);
  for (std::size_t r = 0; r < 24; ++r)
    map.add({cim::fault::FaultKind::kStuckAtZero, r, 1, 0, 0, 1.0});
  xbar.apply_faults(map);
  Matrix after_fault;
  xbar.vmm_batch(v, after_fault, nullptr);
  double fdelta = 0.0;
  for (std::size_t s = 0; s < 4; ++s)
    fdelta += std::abs(after_fault(s, 1) - after_prog(s, 1));
  EXPECT_GT(fdelta, 1e-9) << "fault injection did not reach the batch path";
}

}  // namespace
