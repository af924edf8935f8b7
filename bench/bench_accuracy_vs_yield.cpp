/// \file bench_accuracy_vs_yield.cpp
/// \brief Regenerates the Section III headline claim (ref. [38]): "the
///        classification accuracy ... with random stuck-at-0 faults is
///        reduced by 35% when the yield drops to 80%; if the yield is lower
///        than 80%, the classification accuracy is even lower."
///
/// A trained MLP is mapped onto differential crossbar pairs; yield is swept
/// downward with stuck-at fault injection and classification accuracy is
/// measured. The sweep runs as an adaptive Monte-Carlo campaign
/// (exp::run_campaign): each yield point is a cell, each trial damages a
/// fresh pair of arrays from a (seed, cell, rep) counter-split RNG, and
/// low-variance points (yield ~1.0) freeze after a handful of trials while
/// the noisy mid-yield cliff keeps drawing replications. Results are
/// bit-identical for any CIM_THREADS.
#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "exp/campaign.hpp"
#include "nn/crossbar_linear.hpp"
#include "nn/mlp.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace cim;

namespace {

double crossbar_accuracy(const nn::Mlp& net, const nn::Dataset& test,
                         double yield, util::Rng& rng) {
  nn::CrossbarLinearConfig cfg;
  cfg.array.seed = rng();
  cfg.program_verify = true;
  nn::CrossbarLinear l0(net.layers()[0].w, net.layers()[0].b, cfg);
  cfg.array.seed = rng();
  nn::CrossbarLinear l1(net.layers()[1].w, net.layers()[1].b, cfg);

  if (yield < 1.0) {
    l0.apply_yield(yield, rng);
    l1.apply_yield(yield, rng);
  }

  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    auto h = l0.forward(test.features.row(i));
    for (double& v : h) v = std::max(0.0, v);
    double hmax = 1e-9;
    for (const double v : h) hmax = std::max(hmax, v);
    l1.set_x_max(hmax);
    const auto logits = l1.forward(h);
    const int pred = static_cast<int>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
    if (pred == test.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

}  // namespace

int main() {
  bench::WallTimer total;
  util::Rng rng(3);
  const auto train = nn::generate_digits(700, rng, 0.1);
  const auto test = nn::generate_digits(250, rng, 0.1);
  nn::Mlp net({nn::kPixels, 32, nn::kClasses}, rng);
  net.fit(train, 50, 0.05, rng);
  const double float_acc = net.accuracy(test);
  std::cout << "software float accuracy: " << util::Table::num(float_acc, 3)
            << "\n\n";

  constexpr std::array<double, 7> kYields{1.0, 0.95, 0.9, 0.85, 0.8, 0.7, 0.6};

  exp::CampaignConfig ccfg;
  ccfg.name = "accuracy_vs_yield";
  ccfg.seed = 11;
  ccfg.cells = kYields.size();
  for (const double y : kYields) {
    char label[16];
    std::snprintf(label, sizeof(label), "y%.2f", y);
    ccfg.cell_names.emplace_back(label);
  }
  ccfg.block = 1;  // one accuracy evaluation is already a chunky task
  ccfg.min_trials = 3;
  ccfg.max_trials = 8;
  ccfg.max_blocks_per_round = 2;
  ccfg.ci_confidence = 0.95;
  ccfg.ci_target = 0.025;  // accuracy points, absolute
  ccfg.pool = &util::ThreadPool::global();
  ccfg = exp::apply_env(ccfg);

  bench::WallTimer mc;
  const auto res = exp::run_campaign(
      ccfg, [&](std::size_t cell, std::uint64_t /*rep*/, util::Rng& trng) {
        return crossbar_accuracy(net, test, kYields[cell], trng);
      });
  const double mc_ms = mc.elapsed_ms();

  util::Table t({"yield", "accuracy (mean)", "ci95 half", "accuracy min",
                 "trials", "drop vs fault-free"});
  t.set_title("Accuracy vs yield — stuck-at faults on crossbar-mapped MLP "
              "(cf. [38]: -35% at 80% yield)");
  const double z = obs::z_for_confidence(ccfg.ci_confidence);
  const double clean_acc = res.cells[0].stat.mean;  // yield 1.0 cell
  double drop_at_80 = 0.0;
  for (std::size_t y = 0; y < kYields.size(); ++y) {
    const obs::StreamStat& acc = res.cells[y].stat;
    if (kYields[y] == 0.8) drop_at_80 = clean_acc - acc.mean;
    t.add_row({util::Table::num(kYields[y], 2), util::Table::num(acc.mean, 3),
               util::Table::num(acc.ci_half_width(z), 3),
               util::Table::num(acc.min, 3), std::to_string(acc.n),
               util::Table::num(clean_acc - acc.mean, 3)});
  }
  t.print(std::cout);
  std::cout << "shape check: monotone accuracy drop; tens of percent lost by "
               "80% yield, worse below. Adaptive stopping spent "
            << res.total_trials
            << " trials, concentrated on the noisy mid-yield cliff.\n";
  bench::report("bench_accuracy_vs_yield", total.elapsed_ms(),
                static_cast<double>(res.total_trials),
                {{"mc_wall_ms", mc_ms},
                 {"drop_at_80", drop_at_80},
                 {"campaign_rounds", static_cast<double>(res.rounds)}});
  return 0;
}
