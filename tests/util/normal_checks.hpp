/// \file normal_checks.hpp
/// \brief Test helper: streams draws that should be standard normal and
///        checks their moments, a Kolmogorov-Smirnov distance and their
///        tail counts against N(0, 1). Memory stays fixed (a histogram of
///        the draws), so it takes 2^26 draws as easily as 2^16.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace cim::test {

/// P(|Z| > t) for Z ~ N(0, 1).
inline double normal_two_sided_tail(double t) {
  return std::erfc(t / std::sqrt(2.0));
}

class NormalTally {
 public:
  NormalTally() : hist_(kBins, 0) {}

  void add(double z) {
    ++n_;
    const double z2 = z * z;
    s1_ += z;
    s2_ += z2;
    s3_ += z2 * z;
    s4_ += z2 * z2;
    const double a = std::abs(z);
    for (std::size_t k = 0; k < kTails.size(); ++k)
      if (a > kTails[k]) ++over_[k];
    max_abs_ = std::max(max_abs_, a);
    const double pos = (z + kSpan) * kBinsPerUnit;
    const auto bin = pos <= 0.0 ? std::size_t{0}
                     : pos >= static_cast<double>(kBins - 1)
                         ? kBins - 1
                         : static_cast<std::size_t>(pos);
    ++hist_[bin];
  }

  std::uint64_t n() const { return n_; }
  double max_abs() const { return max_abs_; }
  /// Draws with |z| > t, for t in {3, 4, 5}.
  std::uint64_t over(int t) const { return over_[static_cast<std::size_t>(t - 3)]; }

  double mean() const { return s1_ / static_cast<double>(n_); }
  double variance() const {
    const double m = mean();
    return s2_ / static_cast<double>(n_) - m * m;
  }
  double skewness() const {
    const double m = mean(), n = static_cast<double>(n_);
    const double m3 = s3_ / n - 3.0 * m * s2_ / n + 2.0 * m * m * m;
    return m3 / std::pow(variance(), 1.5);
  }
  double excess_kurtosis() const {
    const double m = mean(), n = static_cast<double>(n_);
    const double m4 = s4_ / n - 4.0 * m * s3_ / n + 6.0 * m * m * s2_ / n -
                      3.0 * m * m * m * m;
    const double v = variance();
    return m4 / (v * v) - 3.0;
  }

  /// Largest |F_n(x) - Phi(x)| over the histogram's bin edges. It is never
  /// above the Kolmogorov-Smirnov distance, so holding it to the KS
  /// critical value is a conservative test.
  double ks_distance() const {
    double d = 0.0;
    std::uint64_t below = 0;
    for (std::size_t b = 0; b + 1 < kBins; ++b) {
      below += hist_[b];
      const double edge = static_cast<double>(b + 1) / kBinsPerUnit - kSpan;
      const double phi = 0.5 * std::erfc(-edge / std::sqrt(2.0));
      d = std::max(d, std::abs(static_cast<double>(below) /
                                   static_cast<double>(n_) -
                               phi));
    }
    return d;
  }

  /// Moments within 5 standard errors of N(0, 1)'s, a KS distance below
  /// the alpha = 1e-3 critical value, and the |z| > t counts (t in
  /// `tails`) within 5 standard deviations of their binomial mean.
  void expect_standard_normal(const std::string& what,
                              std::initializer_list<int> tails) const {
    const double n = static_cast<double>(n_);
    ASSERT_GT(n_, 0u) << what;
    EXPECT_LT(std::abs(mean()), 5.0 / std::sqrt(n)) << what;
    EXPECT_LT(std::abs(variance() - 1.0), 5.0 * std::sqrt(2.0 / n)) << what;
    EXPECT_LT(std::abs(skewness()), 5.0 * std::sqrt(6.0 / n)) << what;
    EXPECT_LT(std::abs(excess_kurtosis()), 5.0 * std::sqrt(24.0 / n)) << what;
    // K_alpha = sqrt(-ln(alpha / 2) / 2) at alpha = 1e-3.
    EXPECT_LT(ks_distance(), 1.9495 / std::sqrt(n)) << what;
    for (const int t : tails) {
      const double p = normal_two_sided_tail(t);
      const double mu = n * p, sd = std::sqrt(n * p * (1.0 - p));
      const auto got = static_cast<double>(over(t));
      EXPECT_GE(got, mu - 5.0 * sd) << what << ": |z| > " << t;
      EXPECT_LE(got, mu + 5.0 * sd) << what << ": |z| > " << t;
    }
  }

 private:
  static constexpr double kSpan = 10.0;         // bins cover [-10, 10)
  static constexpr double kBinsPerUnit = 256.0;
  static constexpr std::size_t kBins = 5120;
  static constexpr std::array<double, 3> kTails = {3.0, 4.0, 5.0};

  std::uint64_t n_ = 0;
  double s1_ = 0.0, s2_ = 0.0, s3_ = 0.0, s4_ = 0.0;
  double max_abs_ = 0.0;
  std::array<std::uint64_t, 3> over_{};
  std::vector<std::uint64_t> hist_;
};

}  // namespace cim::test
