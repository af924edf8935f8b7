/// \file test_cache_coherence.cpp
/// \brief Conductance-cache coherence suite (ctest label `cache`).
///
/// The incremental dirty-tracked cache (CrossbarConfig::incremental_cache)
/// promises bit-identical observable behaviour to the legacy whole-cache
/// rebuild. Every mutating operation is driven on two crossbars that differ
/// only in that flag; since the flag never touches the RNG stream, the two
/// arrays hold identical state, and any divergence in a subsequent VMM can
/// only come from a stale or mis-repaired cache.
///
/// Also hosts the perf smoke gate (a single write_bit between two VMMs must
/// take the O(|dirty|) delta path, not a full rebuild), the dirty-list
/// spill check, the bulk-programming endurance accounting assertion, and
/// the coherence of the tier-0 bit-plane read's row-energy table.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "fault/fault_map.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/simd_dispatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using cim::crossbar::Crossbar;
using cim::crossbar::CrossbarConfig;
using cim::crossbar::ScoutOp;
using cim::util::Matrix;
using cim::util::Rng;

constexpr std::size_t kN = 24;

enum class Op {
  kWriteBit,
  kApplyFaults,
  kImply,
  kMagicNor,
  kMajorityWrite,
  kSetFalse,
  kReadDisturb,
  kScoutRead,
  kProgramCell,
  kProgramBulk,
  kWriteRow,
};

struct Case {
  Op op;
  bool passive;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  static const char* names[] = {"WriteBit",      "ApplyFaults", "Imply",
                                "MagicNor",      "MajorityWrite", "SetFalse",
                                "ReadDisturb",   "ScoutRead",   "ProgramCell",
                                "ProgramBulk",   "WriteRow"};
  return std::string(names[static_cast<int>(info.param.op)]) +
         (info.param.passive ? "_Passive" : "_Active");
}

CrossbarConfig base_config(bool incremental, bool passive) {
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = kN;
  cfg.levels = 8;
  cfg.seed = 77;
  cfg.incremental_cache = incremental;
  cfg.passive_array = passive;
  // Crank the disturb rates so drift-prone reads actually mutate cells and
  // the dirty-marking-on-change paths get exercised — but keep the per-VMM
  // expected disturb count (0.05 * 576 ≈ 29 cells) below the dirty-list
  // spill threshold (max(32, 576/8) = 72) so the delta path stays live.
  cim::device::TechnologyParams tech =
      cim::device::technology_params(cfg.tech);
  tech.read_disturb_prob = 0.05;
  tech.write_disturb_prob = 1e-3;
  cfg.tech_override = tech;
  return cfg;
}

/// Config for the cache-mechanics tests: disturb physics off, so every
/// dirty mark is an explicitly requested mutation and the rebuild/delta
/// counters are exactly predictable.
CrossbarConfig maintenance_config(bool incremental) {
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = kN;
  cfg.levels = 8;
  cfg.seed = 77;
  cfg.incremental_cache = incremental;
  cim::device::TechnologyParams tech =
      cim::device::technology_params(cfg.tech);
  tech.read_disturb_prob = 0.0;
  tech.write_disturb_prob = 0.0;
  cfg.tech_override = tech;
  return cfg;
}

/// An array programmed with one fixed random level pattern, built in place
/// (a Crossbar can be neither copied nor moved).
class Programmed : public Crossbar {
 public:
  explicit Programmed(const CrossbarConfig& cfg) : Crossbar(cfg) {
    Rng rng(91);
    Matrix lv(kN, kN);
    for (auto& v : lv.flat()) v = static_cast<double>(rng.uniform_int(8));
    program_levels(lv);
  }
};

/// Applies the parametrized mutating op to one crossbar. `rng` drives the
/// op operands only (never the crossbar's own stream), so both members of
/// a pair see the same address sequence.
void apply_op(Crossbar& xbar, Op op, Rng& rng) {
  const std::size_t r = rng.uniform_int(kN);
  const std::size_t c = rng.uniform_int(kN);
  switch (op) {
    case Op::kWriteBit:
      xbar.write_bit(r, c, rng.bernoulli(0.5));
      break;
    case Op::kApplyFaults: {
      cim::fault::FaultMap map(kN, kN);
      map.add({cim::fault::FaultKind::kStuckAtZero, r, c, 0, 0, 1.0});
      map.add({cim::fault::FaultKind::kStuckAtOne, (r + 1) % kN, c, 0, 0, 1.0});
      xbar.apply_faults(map);
      break;
    }
    case Op::kImply:
      xbar.imply(r, c, r, (c + 1) % kN);
      break;
    case Op::kMagicNor: {
      const std::size_t ins[] = {(c + 1) % kN, (c + 2) % kN};
      xbar.magic_nor(r, ins, c);
      break;
    }
    case Op::kMajorityWrite:
      xbar.majority_write(r, c, rng.bernoulli(0.5), rng.bernoulli(0.5));
      break;
    case Op::kSetFalse:
      xbar.set_false(r, c);
      break;
    case Op::kReadDisturb:
      // Drift-prone reads: with read_disturb_prob = 0.2, 16 reads disturb
      // ~3 cells per round.
      for (int k = 0; k < 8; ++k) {
        (void)xbar.read_bit(rng.uniform_int(kN), rng.uniform_int(kN));
        (void)xbar.read_conductance(rng.uniform_int(kN), rng.uniform_int(kN));
      }
      break;
    case Op::kScoutRead:
      (void)xbar.scout_read(r, (r + 1) % kN, c, ScoutOp::kOr);
      (void)xbar.scout_read(r, (r + 2) % kN, c, ScoutOp::kAnd);
      break;
    case Op::kProgramCell:
      (void)xbar.program_cell(r, c,
                              xbar.scheme().level_conductance_us(
                                  static_cast<int>(rng.uniform_int(8))));
      break;
    case Op::kProgramBulk: {
      Matrix lv(kN, kN);
      Rng lrng(rng());  // same sub-seed for both crossbars of the pair
      for (auto& v : lv.flat()) v = static_cast<double>(lrng.uniform_int(8));
      xbar.program_levels(lv);
      break;
    }
    case Op::kWriteRow: {
      std::vector<bool> bits(kN);
      for (std::size_t k = 0; k < kN; ++k) bits[k] = rng.bernoulli(0.5);
      xbar.write_row(r, bits);
      break;
    }
  }
}

Matrix dense_input(std::uint64_t seed) {
  Rng rng(seed);
  Matrix v(4, kN);
  for (auto& x : v.flat()) x = rng.uniform(0.0, 0.3);
  return v;
}

class CacheCoherence : public testing::TestWithParam<Case> {};

// Every mutating op, interleaved with VMMs: the incremental crossbar's
// outputs must be bitwise-equal to the full-rebuild crossbar's at every
// step — including repeated delta repairs between rebuilds.
TEST_P(CacheCoherence, VmmBitIdenticalToFullRebuild) {
  const auto [op, passive] = GetParam();
  Programmed incr(base_config(/*incremental=*/true, passive));
  Programmed full(base_config(/*incremental=*/false, passive));
  Rng op_rng_a(131), op_rng_b(131);

  std::vector<double> v(kN, 0.2);
  for (int round = 0; round < 4; ++round) {
    apply_op(incr, op, op_rng_a);
    apply_op(full, op, op_rng_b);
    const auto out_incr = incr.vmm(v);
    const auto out_full = full.vmm(v);
    ASSERT_EQ(out_incr.size(), out_full.size());
    for (std::size_t i = 0; i < out_incr.size(); ++i)
      ASSERT_EQ(out_incr[i], out_full[i])
          << "round " << round << " col " << i;
  }
  // Ops that mutate unconditionally must have exercised the delta path
  // (bulk ops legitimately rebuild; conditional ops may not fire a write).
  if (op == Op::kWriteBit || op == Op::kSetFalse || op == Op::kProgramCell) {
    EXPECT_GT(incr.stats().cache_delta_updates, 0u);
  }
}

// Same contract through the batched path (vmm_batch shares the caches).
TEST_P(CacheCoherence, VmmBatchBitIdenticalToFullRebuild) {
  const auto [op, passive] = GetParam();
  Programmed incr(base_config(/*incremental=*/true, passive));
  Programmed full(base_config(/*incremental=*/false, passive));
  Rng op_rng_a(151), op_rng_b(151);
  const auto v = dense_input(157);
  cim::util::ThreadPool pool(2);

  Matrix out_incr, out_full;
  for (int round = 0; round < 3; ++round) {
    apply_op(incr, op, op_rng_a);
    apply_op(full, op, op_rng_b);
    incr.vmm_batch(v, out_incr, &pool);
    full.vmm_batch(v, out_full, &pool);
    const auto fi = out_incr.flat();
    const auto ff = out_full.flat();
    ASSERT_EQ(fi.size(), ff.size());
    for (std::size_t i = 0; i < fi.size(); ++i)
      ASSERT_EQ(fi[i], ff[i]) << "round " << round << " flat " << i;
  }
}

// The sneak-path read current is the other consumer of g_true_cache_.
TEST_P(CacheCoherence, SneakReadBitIdenticalToFullRebuild) {
  const auto [op, passive] = GetParam();
  Programmed incr(base_config(/*incremental=*/true, passive));
  Programmed full(base_config(/*incremental=*/false, passive));
  Rng op_rng_a(173), op_rng_b(173);

  apply_op(incr, op, op_rng_a);
  apply_op(full, op, op_rng_b);
  for (std::size_t k = 0; k < 4; ++k) {
    const double a = incr.read_current_with_sneak(k, k, 4);
    const double b = full.read_current_with_sneak(k, k, 4);
    ASSERT_EQ(a, b) << "target cell (" << k << "," << k << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMutatingOps, CacheCoherence,
    testing::Values(Case{Op::kWriteBit, false}, Case{Op::kWriteBit, true},
                    Case{Op::kApplyFaults, false},
                    Case{Op::kImply, false}, Case{Op::kMagicNor, false},
                    Case{Op::kMajorityWrite, false},
                    Case{Op::kSetFalse, false}, Case{Op::kSetFalse, true},
                    Case{Op::kReadDisturb, false},
                    Case{Op::kReadDisturb, true},
                    Case{Op::kScoutRead, false},
                    Case{Op::kProgramCell, false},
                    Case{Op::kProgramCell, true},
                    Case{Op::kProgramBulk, false},
                    Case{Op::kWriteRow, false}, Case{Op::kWriteRow, true}),
    case_name);

// Perf smoke gate: a single write_bit between two VMMs must be served by a
// delta update, not a second full rebuild. This is the ctest-visible proof
// that the write/VMM interleave hot path stays O(|dirty|).
TEST(CacheMaintenance, SingleWriteBetweenVmmsTakesDeltaPath) {
  Programmed xbar(maintenance_config(/*incremental=*/true));
  xbar.reset_stats();
  std::vector<double> v(kN, 0.2);

  (void)xbar.vmm(v);
  EXPECT_EQ(xbar.stats().cache_full_rebuilds, 1u)
      << "first VMM after programming must rebuild once";

  xbar.write_bit(3, 5, true);
  (void)xbar.vmm(v);
  const auto& st = xbar.stats();
  EXPECT_EQ(st.cache_full_rebuilds, 1u)
      << "the write after the first VMM must NOT force a rebuild";
  EXPECT_EQ(st.cache_delta_updates, 1u);
  EXPECT_GE(st.cache_dirty_cells, 1u);
}

// Mutating more cells than the spill threshold falls back to one rebuild.
TEST(CacheMaintenance, DirtyListSpillsToFullRebuild) {
  Programmed xbar(maintenance_config(/*incremental=*/true));
  xbar.reset_stats();
  std::vector<double> v(kN, 0.2);
  (void)xbar.vmm(v);

  // 24x24 array: threshold is max(32, 576/8) = 72 dirty cells.
  for (std::size_t r = 0; r < kN; ++r)
    for (std::size_t c = 0; c < 4; ++c) xbar.set_false(r, c);
  (void)xbar.vmm(v);
  EXPECT_EQ(xbar.stats().cache_full_rebuilds, 2u);
  EXPECT_EQ(xbar.stats().cache_delta_updates, 0u);
}

// Tier 1 scales each column's noise by a cached std, which a delta repair
// refreshes for the dirty cells' columns only. After writes repaired by a
// delta, a tier-1 read must match the one a full rebuild gives, up to the
// ulps by which the two accumulation orders can differ.
TEST(CacheMaintenance, DeltaRepairRefreshesDirtyColumnStd) {
  using cim::crossbar::FidelityTier;
  Programmed delta(maintenance_config(/*incremental=*/true));
  Programmed rebuilt(maintenance_config(/*incremental=*/true));
  std::vector<double> v(kN, 0.2);
  (void)delta.vmm(v, FidelityTier::kIdeal);  // builds the caches, no draw
  const double g_max = delta.scheme().g_max_us();
  for (std::size_t k = 0; k < 3; ++k) {
    (void)delta.program_cell(k, 2 * k, g_max);
    (void)rebuilt.program_cell(k, 2 * k, g_max);
  }
  const auto a = delta.vmm(v, FidelityTier::kCalibrated);
  const auto b = rebuilt.vmm(v, FidelityTier::kCalibrated);
  EXPECT_EQ(delta.stats().cache_delta_updates, 1u);
  EXPECT_EQ(rebuilt.stats().cache_delta_updates, 0u);
  for (std::size_t c = 0; c < kN; ++c)
    EXPECT_NEAR(a[c], b[c], 1e-12 * std::abs(b[c])) << "col " << c;
}

// Legacy mode: every mutation forces a rebuild (the pre-incremental cost
// model the bench compares against).
TEST(CacheMaintenance, LegacyModeRebuildsEveryTime) {
  Programmed xbar(maintenance_config(/*incremental=*/false));
  xbar.reset_stats();
  std::vector<double> v(kN, 0.2);
  (void)xbar.vmm(v);
  xbar.write_bit(1, 1, true);
  (void)xbar.vmm(v);
  EXPECT_EQ(xbar.stats().cache_full_rebuilds, 2u);
  EXPECT_EQ(xbar.stats().cache_delta_updates, 0u);
}

// Bulk programming batches the cache work into one whole-array update and
// counts each cell write exactly once in the endurance accounting (the
// wear-out model depends on this: double-counting would halve predicted
// lifetime).
TEST(CacheMaintenance, BulkProgrammingCountsEachCellWriteOnce) {
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = kN;
  cfg.levels = 8;
  cfg.seed = 201;
  Crossbar xbar(cfg);
  Rng rng(203);
  Matrix lv(kN, kN);
  for (auto& v : lv.flat()) v = static_cast<double>(rng.uniform_int(8));

  xbar.program_levels(lv);
  EXPECT_EQ(xbar.stats().analog_writes, kN * kN)
      << "bulk programming must account exactly one analog write per cell";

  // Programming via conductances is the other bulk entry point: a second
  // pass must add exactly rows*cols writes again (no per-cell double
  // counting from the batched cache handling).
  Matrix g(kN, kN);
  for (auto& x : g.flat())
    x = xbar.scheme().level_conductance_us(
        static_cast<int>(rng.uniform_int(8)));
  xbar.program_conductances(g);
  EXPECT_EQ(xbar.stats().analog_writes, 2 * kN * kN);

  std::vector<double> v(kN, 0.2);
  xbar.reset_stats();
  (void)xbar.vmm(v);
  EXPECT_EQ(xbar.stats().cache_full_rebuilds, 1u)
      << "bulk programming must collapse to a single cache update";
  EXPECT_EQ(xbar.stats().cache_delta_updates, 0u);
}

/// Restores the kernel table that was active when it was made.
class IsaRestore {
 public:
  IsaRestore() : saved_(cim::util::simd::active_isa()) {}
  ~IsaRestore() { cim::util::simd::set_isa(saved_); }
  IsaRestore(const IsaRestore&) = delete;
  IsaRestore& operator=(const IsaRestore&) = delete;

 private:
  cim::util::simd::Isa saved_;
};

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A tier-0 vmm_bit_planes on `fused` against one vmm() per plane on
/// `split`: every current and plane energy, then every CrossbarStats field,
/// bitwise.
void expect_fused_equals_split(Crossbar& fused, Crossbar& split,
                               const std::vector<std::uint32_t>& inputs,
                               double v) {
  using cim::crossbar::FidelityTier;
  constexpr int kPlanes = 4;
  const std::size_t cols = fused.cols();
  std::vector<double> currents(kPlanes * cols);
  std::vector<double> energy(kPlanes);
  fused.vmm_bit_planes(inputs, kPlanes, v, currents, energy,
                       FidelityTier::kFull);
  std::vector<double> volts(fused.rows());
  std::vector<double> expected(cols);
  for (std::size_t b = 0; b < kPlanes; ++b) {
    for (std::size_t r = 0; r < volts.size(); ++r)
      volts[r] = ((inputs[r] >> b) & 1u) != 0 ? v : 0.0;
    split.vmm(volts, expected, FidelityTier::kFull);
    ASSERT_EQ(bits_of(energy[b]), bits_of(split.last_op_energy_pj()))
        << "plane " << b;
    for (std::size_t c = 0; c < cols; ++c)
      ASSERT_EQ(bits_of(currents[b * cols + c]), bits_of(expected[c]))
          << "plane " << b << " column " << c;
  }
  const auto& a = fused.stats();
  const auto& e = split.stats();
  EXPECT_EQ(a.bit_reads, e.bit_reads);
  EXPECT_EQ(a.bit_writes, e.bit_writes);
  EXPECT_EQ(a.analog_writes, e.analog_writes);
  EXPECT_EQ(a.vmm_ops, e.vmm_ops);
  EXPECT_EQ(a.logic_ops, e.logic_ops);
  EXPECT_EQ(bits_of(a.time_ns), bits_of(e.time_ns));
  EXPECT_EQ(bits_of(a.energy_pj), bits_of(e.energy_pj));
  EXPECT_EQ(a.cache_full_rebuilds, e.cache_full_rebuilds);
  EXPECT_EQ(a.cache_delta_updates, e.cache_delta_updates);
  EXPECT_EQ(a.cache_dirty_cells, e.cache_dirty_cells);
}

// A tier-0 vmm_bit_planes reuses a per-array table of row energies, keyed
// on the conductance-cache generation, the read voltage and the kernel
// table. Each way the key can change is interleaved with fused reads of
// one 64x32 array, and an identically built twin reads every plane
// through vmm(); the two must agree bitwise at every step. The read
// disturb rate also lets some tier-0 reads move a cell on their own; a
// change of the voltage or of the kernel table follows a read that moved
// none, so the generation alone cannot make the table stale.
TEST(CacheMaintenance, BitPlaneRowEnergyFollowsEveryChange) {
  namespace simd = cim::util::simd;
  IsaRestore restore;
  CrossbarConfig cfg;
  cfg.rows = 64;
  cfg.cols = 32;
  cfg.seed = 211;
  cim::device::TechnologyParams tech =
      cim::device::technology_params(cfg.tech);
  tech.read_disturb_prob = 1e-4;
  cfg.tech_override = tech;
  Crossbar fused(cfg);
  Crossbar split(cfg);
  Rng rng(223);
  const auto both = [&](const auto& op) {
    op(fused);
    op(split);
  };
  Matrix lv(cfg.rows, cfg.cols);
  for (auto& x : lv.flat()) x = static_cast<double>(rng.uniform_int(16));
  both([&](Crossbar& x) { x.program_levels(lv); });

  std::vector<std::uint32_t> inputs(cfg.rows);
  double v = fused.tech().v_read;
  const auto read = [&](const char* step) {
    SCOPED_TRACE(step);
    for (auto& x : inputs) x = static_cast<std::uint32_t>(rng.uniform_int(16));
    expect_fused_equals_split(fused, split, inputs, v);
  };
  // Reads until one leaves every cell as it was.
  const auto settle = [&](const char* step) {
    std::vector<double> before(cfg.rows * cfg.cols);
    const auto changed = [&] {
      bool any = false;
      for (std::size_t i = 0; i < before.size(); ++i) {
        const double g = fused.true_conductance(i / cfg.cols, i % cfg.cols);
        any = any || g != before[i];
        before[i] = g;
      }
      return any;
    };
    (void)changed();
    for (int tries = 0; tries < 64; ++tries) {
      read(step);
      if (::testing::Test::HasFatalFailure() || !changed()) return;
    }
    FAIL() << "every read moved a cell";
  };
  read("first read");
  read("second read, same conductances");

  const double g_off = fused.scheme().g_min_us();
  both([&](Crossbar& x) { (void)x.program_cell(3, 4, 2.5 * g_off); });
  read("after program_cell");

  for (auto& x : lv.flat()) x = static_cast<double>(rng.uniform_int(16));
  both([&](Crossbar& x) { x.program_levels(lv); });
  read("after program_levels");

  both([&](Crossbar& x) { x.write_bit(9, 30, true); });
  read("after write_bit");

  cim::fault::FaultMap map(cfg.rows, cfg.cols);
  map.add({cim::fault::FaultKind::kStuckAtOne, 12, 5, 0, 0, 1.0});
  map.add({cim::fault::FaultKind::kStuckAtZero, 40, 31, 0, 0, 1.0});
  map.add({cim::fault::FaultKind::kReadDisturb, 5, 7, 0, 0, 1.0});
  both([&](Crossbar& x) { x.apply_faults(map); });
  read("after apply_faults");

  // The faulty cell's read-disturb probability is 1e-4 * 1e4 = 1: a read
  // of it moves it, from g_off up.
  both([&](Crossbar& x) { (void)x.program_cell(5, 7, g_off); });
  read("after programming the disturb-prone cell");
  const double g_before = fused.true_conductance(5, 7);
  both([&](Crossbar& x) { (void)x.read_conductance(5, 7); });
  ASSERT_NE(fused.true_conductance(5, 7), g_before) << "no read-disturb hit";
  read("after a read-disturb hit");

  settle("before halving the read voltage");
  v = 0.5 * fused.tech().v_read;
  read("at half the read voltage");
  settle("again at half the read voltage");
  v = fused.tech().v_read;
  read("back at the read voltage");

  for (const simd::Isa isa : simd::supported_isas()) {
    settle("before switching the kernel table");
    simd::set_isa(isa);
    SCOPED_TRACE(simd::isa_name(isa));
    read("first read on this kernel table");
  }
}

}  // namespace
