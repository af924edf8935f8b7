/// Statistical rows for the disturb draws of a Crossbar (ctest label
/// `cache`): the half-select sweep of a write and the read disturb of a
/// tier-0 read are checked against their distributions, not against the
/// generator's bit positions.
///
/// A disturb hit moves a cell half a level step towards LRS. The arrays here
/// have 4096 levels, so no cell nears g_on over a row, and programmed cells
/// land exactly on their target (no write variation), so a hit on the
/// written cell would show. Bounds are 5 sigma, or alpha = 1e-6 for the
/// chi-square tests, at fixed seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "fault/fault_map.hpp"
#include "util/matrix.hpp"

namespace cim::crossbar {
namespace {

CrossbarConfig disturb_config(std::size_t rows, std::size_t cols,
                              double write_p, double read_p,
                              std::uint64_t seed) {
  CrossbarConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.levels = 4096;
  cfg.seed = seed;
  device::TechnologyParams tech =
      device::technology_params(device::Technology::kReRamHfOx);
  tech.max_levels = 4096;
  tech.write_sigma_log = 0.0;
  tech.endurance_mean = 1e15;  // no wear-out within a row
  tech.endurance_sigma_log = 0.0;
  tech.write_disturb_prob = write_p;
  tech.read_disturb_prob = read_p;
  cfg.tech_override = tech;
  return cfg;
}

/// Upper alpha = 1e-6 point of chi-square with `df` degrees of freedom
/// (Wilson-Hilferty).
double chi2_bound(double df) {
  const double a = 2.0 / (9.0 * df);
  const double t = 1.0 - a + 4.753 * std::sqrt(a);
  return df * t * t * t;
}

double chi2(const std::vector<double>& counts, double expected) {
  double s = 0.0;
  for (const double n : counts) s += (n - expected) * (n - expected) / expected;
  return s;
}

/// Sample mean and (n - 1) variance.
struct Moments {
  double mean = 0.0;
  double var = 0.0;
};
Moments moments(const std::vector<double>& xs) {
  Moments m;
  for (const double x : xs) m.mean += x;
  m.mean /= static_cast<double>(xs.size());
  for (const double x : xs) m.var += (x - m.mean) * (x - m.mean);
  m.var /= static_cast<double>(xs.size() - 1);
  return m;
}

/// Sample mean and variance of `xs` against Binomial(n, p), at 5 sigma.
void expect_binomial(const std::vector<double>& xs, double n, double p) {
  const double w = static_cast<double>(xs.size());
  const double mean = n * p;
  const double var = n * p * (1.0 - p);
  // Fourth central moment of the binomial, for the spread of the variance.
  const double mu4 = var * (1.0 + 3.0 * (n - 2.0) * p * (1.0 - p));
  const Moments m = moments(xs);
  EXPECT_NEAR(m.mean, mean, 5.0 * std::sqrt(var / w));
  EXPECT_NEAR(m.var, var, 5.0 * std::sqrt((mu4 - var * var) / w));
}

/// One line of cells: a 1 x n or an n x 1 array, position k on the line.
struct Line {
  std::size_t n;
  bool row;  ///< 1 x n: the sweep walks the written cell's row
  std::size_t r(std::size_t k) const { return row ? 0 : k; }
  std::size_t c(std::size_t k) const { return row ? k : 0; }
  CrossbarConfig config(double write_p, std::uint64_t seed) const {
    return disturb_config(row ? 1 : n, row ? n : 1, write_p, 0.0, seed);
  }
};

/// `writes` writes of g_off to position `at` of `line`; per write the number
/// of neighbours whose conductance moved, and per position the writes that
/// moved it. The written cell must land exactly on g_off every time.
struct SweepCounts {
  std::vector<double> per_write;
  std::vector<double> per_cell;
};
SweepCounts sweep_counts(Crossbar& xbar, const Line& line, std::size_t at,
                         int writes) {
  SweepCounts out;
  out.per_cell.assign(line.n, 0.0);
  const double g_off = xbar.tech().g_off_us();
  std::vector<double> before(line.n);
  for (int w = 0; w < writes; ++w) {
    for (std::size_t k = 0; k < line.n; ++k)
      before[k] = xbar.true_conductance(line.r(k), line.c(k));
    (void)xbar.program_cell(line.r(at), line.c(at), g_off);
    EXPECT_EQ(xbar.true_conductance(line.r(at), line.c(at)), g_off)
        << "the written cell was hit on write " << w;
    double hits = 0.0;
    for (std::size_t k = 0; k < line.n; ++k) {
      if (k == at || xbar.true_conductance(line.r(k), line.c(k)) == before[k])
        continue;
      hits += 1.0;
      out.per_cell[k] += 1.0;
    }
    out.per_write.push_back(hits);
  }
  return out;
}

constexpr Line kLines[] = {{64, true}, {64, false}};

// Per write, the hits on a line of n cells are Binomial(n - 1, p), and they
// fall uniformly on the n - 1 neighbours, never on the written cell.
TEST(WriteDisturbStats, LineHitsAreBinomialAndUniform) {
  const double p = 0.01;
  const int writes = 20000;
  for (const Line& line : kLines) {
    SCOPED_TRACE(line.row ? "row line" : "column line");
    Crossbar xbar(line.config(p, 401));
    const std::size_t at = 21;
    const SweepCounts s = sweep_counts(xbar, line, at, writes);
    expect_binomial(s.per_write, static_cast<double>(line.n - 1), p);

    EXPECT_EQ(s.per_cell[at], 0.0);
    std::vector<double> neighbours;
    for (std::size_t k = 0; k < line.n; ++k)
      if (k != at) neighbours.push_back(s.per_cell[k]);
    const double df = static_cast<double>(neighbours.size() - 1);
    EXPECT_LT(chi2(neighbours, writes * p), chi2_bound(df));
  }
}

// At p >= 1 every neighbour on the written cell's row and column is hit once
// per write, and no other cell moves.
TEST(WriteDisturbStats, ProbabilityOneHitsEveryNeighbour) {
  Crossbar xbar(disturb_config(16, 16, 2.0, 0.0, 402));
  const double g_off = xbar.tech().g_off_us();
  const double half = 0.5 * xbar.scheme().step_us();
  util::Matrix before(16, 16);
  for (std::size_t w = 0; w < 24; ++w) {
    const std::size_t r0 = (5 * w) % 16;
    const std::size_t c0 = (7 * w + 3) % 16;
    for (std::size_t r = 0; r < 16; ++r)
      for (std::size_t c = 0; c < 16; ++c)
        before(r, c) = xbar.true_conductance(r, c);
    (void)xbar.program_cell(r0, c0, g_off);
    for (std::size_t r = 0; r < 16; ++r)
      for (std::size_t c = 0; c < 16; ++c) {
        const double g = xbar.true_conductance(r, c);
        if (r == r0 && c == c0)
          EXPECT_EQ(g, g_off);
        else if (r == r0 || c == c0)
          EXPECT_NEAR(g - before(r, c), half, 1e-9 * half) << r << "," << c;
        else
          EXPECT_EQ(g, before(r, c)) << r << "," << c;
      }
  }
}

// A row write selects its whole row. At p >= 1 each cell of the other rows is
// hit once, by its column's write, exactly as a write_bit loop on a twin
// array hits it; the row's own cells hold what was written, where the loop's
// later writes along the row hit them.
TEST(WriteDisturbStats, RowWriteSweepsColumnsOnly) {
  Crossbar rows(disturb_config(4, 8, 2.0, 0.0, 405));
  Crossbar loop(disturb_config(4, 8, 2.0, 0.0, 405));
  const double half = 0.5 * rows.scheme().step_us();
  const double g_off = rows.tech().g_off_us();
  const std::vector<bool> word = {true, false, false, true,
                                  false, true, true, false};
  util::Matrix before(4, 8);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 8; ++c)
      before(r, c) = rows.true_conductance(r, c);
  rows.write_row(1, word);
  for (std::size_t c = 0; c < word.size(); ++c) loop.write_bit(1, c, word[c]);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 8; ++c) {
      const double g = rows.true_conductance(r, c);
      if (r == 1) {
        EXPECT_EQ(g, rows.scheme().level_conductance_us(
                         word[c] ? rows.scheme().levels() - 1 : 0))
            << c;
      } else {
        EXPECT_NEAR(g - before(r, c), half, 1e-9 * half) << r << "," << c;
        EXPECT_EQ(g, loop.true_conductance(r, c)) << r << "," << c;
      }
    }
  // Cell (1, 1) holds a 0, and the loop's six later writes on row 1 hit it.
  EXPECT_NEAR(loop.true_conductance(1, 1) - g_off, 6.0 * half, 1e-9 * half);
}

// Without write disturb a row write is a write_bit loop: the same cells and
// the same costs, through the same row decoder.
TEST(WriteDisturbStats, RowWriteIsWriteBitLoopWithoutDisturb) {
  CrossbarConfig cfg;
  cfg.rows = 4;
  cfg.cols = 8;
  cfg.levels = 2;
  cfg.verified_writes = true;
  cfg.seed = 406;
  auto tech = device::technology_params(device::Technology::kReRamHfOx);
  tech.write_disturb_prob = 0.0;
  cfg.tech_override = tech;
  Crossbar rows(cfg);
  Crossbar loop(cfg);
  fault::FaultMap map(4, 8);
  map.add({fault::FaultKind::kAddressDecoder, 2, 0, /*aux_row=*/0, 0, 1.0});
  rows.apply_faults(map);
  loop.apply_faults(map);
  for (std::size_t r = 0; r < 4; ++r) {
    std::vector<bool> word(8);
    for (std::size_t c = 0; c < 8; ++c) word[c] = ((r * 8 + c) * 5) % 3 == 0;
    rows.write_row(r, word);
    for (std::size_t c = 0; c < 8; ++c) loop.write_bit(r, c, word[c]);
  }
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 8; ++c)
      EXPECT_EQ(rows.true_conductance(r, c), loop.true_conductance(r, c))
          << r << "," << c;
  EXPECT_EQ(rows.stats().bit_writes, loop.stats().bit_writes);
  EXPECT_EQ(rows.stats().time_ns, loop.stats().time_ns);
  EXPECT_EQ(rows.stats().energy_pj, loop.stats().energy_pj);
  EXPECT_THROW(rows.write_row(4, std::vector<bool>(8)), std::out_of_range);
  EXPECT_THROW(rows.write_row(0, std::vector<bool>(9)), std::out_of_range);
}

// On a line that holds a stuck cell and a write-disturb fault (scale 1e3),
// the stuck cell is never hit, the faulty cell is hit at min(1, p * 1e3)
// and every other neighbour at p.
TEST(WriteDisturbStats, StuckNeverHitScaledAtItsOwnRate) {
  const double p = 1e-4;
  const int writes = 20000;
  for (const Line& line : kLines) {
    SCOPED_TRACE(line.row ? "row line" : "column line");
    Crossbar xbar(line.config(p, 403));
    const std::size_t stuck = 5;
    const std::size_t scaled = 40;
    const std::size_t at = 21;
    fault::FaultMap map(line.row ? 1 : line.n, line.row ? line.n : 1);
    map.add({fault::FaultKind::kStuckAtZero, line.r(stuck), line.c(stuck), 0,
             0, 1.0});
    map.add({fault::FaultKind::kWriteDisturb, line.r(scaled), line.c(scaled),
             0, 0, 1.0});
    xbar.apply_faults(map);
    const SweepCounts s = sweep_counts(xbar, line, at, writes);

    EXPECT_EQ(s.per_cell[stuck], 0.0);
    const double w = writes;
    const double q = std::min(1.0, p * 1e3);
    EXPECT_NEAR(s.per_cell[scaled], w * q, 5.0 * std::sqrt(w * q * (1 - q)));
    double rest = 0.0;
    for (std::size_t k = 0; k < line.n; ++k)
      if (k != at && k != stuck && k != scaled) rest += s.per_cell[k];
    const double trials = w * static_cast<double>(line.n - 3);
    EXPECT_NEAR(rest, trials * p, 5.0 * std::sqrt(trials * p * (1 - p)));
  }
}

// A tier-0 read disturbs floor(E) + Bernoulli(E - floor(E)) cells, with
// E = read_disturb_prob * cells, each uniform over the array.
TEST(ReadDisturbStats, HitsPerReadAreFloorPlusBernoulli) {
  const std::size_t n = 8;
  const int reads = 20000;
  for (const double expected : {0.3, 2.3}) {
    SCOPED_TRACE(expected);
    const double cells = static_cast<double>(n * n);
    Crossbar xbar(disturb_config(n, n, 0.0, expected / cells, 404));
    const double half = 0.5 * xbar.scheme().step_us();
    const std::vector<double> v(n, 0.2);
    std::vector<double> out(n), before(n * n);
    std::vector<double> per_cell(n * n, 0.0);
    const double whole = std::floor(expected);
    double above = 0.0;
    for (int i = 0; i < reads; ++i) {
      for (std::size_t k = 0; k < n * n; ++k)
        before[k] = xbar.true_conductance(k / n, k % n);
      xbar.vmm(v, out);
      double hits = 0.0;
      for (std::size_t k = 0; k < n * n; ++k) {
        const double steps = std::round(
            (xbar.true_conductance(k / n, k % n) - before[k]) / half);
        hits += steps;
        per_cell[k] += steps;
      }
      ASSERT_TRUE(hits == whole || hits == whole + 1.0) << hits;
      if (hits > whole) above += 1.0;
    }
    const double frac = expected - whole;
    EXPECT_NEAR(above / reads, frac,
                5.0 * std::sqrt(frac * (1 - frac) / reads));
    EXPECT_LT(chi2(per_cell, expected * reads / cells),
              chi2_bound(cells - 1.0));
  }
}

}  // namespace
}  // namespace cim::crossbar
