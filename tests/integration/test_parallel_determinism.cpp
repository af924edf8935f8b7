/// \file test_parallel_determinism.cpp
/// \brief End-to-end determinism gates for the parallel execution engine:
///        the NN batch path, the tiled CimSystem path, and a Monte-Carlo
///        march-test sweep must all be bit-identical for any thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/cim_system.hpp"
#include "memtest/march.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using cim::util::Matrix;
using cim::util::Rng;
using cim::util::ThreadPool;

TEST(ParallelDeterminism, MlpAccuracyPoolMatchesSerial) {
  Rng rng(11);
  const auto data = cim::nn::generate_digits(120, rng, 0.1);
  cim::nn::Mlp net({cim::nn::kPixels, 12, cim::nn::kClasses}, rng);
  net.fit(data, 10, 0.05, rng);

  const double serial = net.accuracy(data);
  ThreadPool pool2(2), pool8(8);
  EXPECT_EQ(serial, net.accuracy(data, &pool2));
  EXPECT_EQ(serial, net.accuracy(data, &pool8));

  const auto serial_preds = net.predict_batch(data);
  EXPECT_EQ(serial_preds, net.predict_batch(data, &pool8));
}

TEST(ParallelDeterminism, CimSystemVmmIntPoolMatchesSerial) {
  // Weights spanning several 8x8 tiles so the pool actually fans out.
  Rng rng(13);
  Matrix w(20, 24);
  for (auto& v : w.flat())
    v = static_cast<double>(static_cast<long>(rng.uniform_int(15)) - 7);
  std::vector<std::uint32_t> x(24);
  for (auto& v : x) v = static_cast<std::uint32_t>(rng.uniform_int(16));

  const auto run = [&](ThreadPool* pool) {
    cim::core::CimSystemConfig cfg;
    cfg.tile.tile.rows = 8;
    cfg.tile.tile.cols = 8;
    cfg.tile.array.model_ir_drop = false;
    cfg.tile.seed = 17;
    cim::core::CimSystem sys(w, cfg);
    return sys.vmm_int(x, 4, pool);
  };

  const auto serial = run(nullptr);
  ThreadPool pool2(2), pool8(8);
  EXPECT_EQ(serial, run(&pool2));
  EXPECT_EQ(serial, run(&pool8));
}

TEST(ParallelDeterminism, MonteCarloMarchSweep) {
  const auto trial = [](std::uint64_t t) {
    Rng rng(Rng::stream_seed(101, t));
    const auto map = cim::fault::FaultMap::with_fault_count(
        16, 16, 6, cim::fault::FaultMix::stuck_at_only(), rng);
    cim::crossbar::CrossbarConfig cfg;
    cfg.rows = cfg.cols = 16;
    cfg.levels = 2;
    cfg.verified_writes = true;
    cfg.seed = Rng::stream_seed(211, t);
    cim::crossbar::Crossbar xbar(cfg);
    xbar.apply_faults(map);
    return cim::memtest::fault_coverage(
        map, cim::memtest::run_march(xbar, cim::memtest::march_cstar()));
  };

  const auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> cov(12, 0.0);
    pool.parallel_for(0, cov.size(),
                      [&](std::size_t t) { cov[t] = trial(t); });
    return cov;
  };

  const auto ref = run(1);
  EXPECT_EQ(ref, run(2));
  EXPECT_EQ(ref, run(8));
}

}  // namespace
