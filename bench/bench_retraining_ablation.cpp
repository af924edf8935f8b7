/// \file bench_retraining_ablation.cpp
/// \brief Ablation for the recovery half of [38] ("Fault-tolerant training
///        with on-line fault detection"): the accuracy-vs-yield curve of
///        `bench_accuracy_vs_yield`, before and after fault-masked
///        retraining — the paper's proposed escape from the 35%+ drop.
///
/// The base MLP is trained once; each campaign trial copies it, maps it
/// onto fresh differential arrays, injects yield damage from the trial's
/// (seed, cell, rep) counter-split RNG, retrains through the faulty arrays
/// and reports the recovered accuracy (after - before). The adaptive
/// campaign (exp::run_campaign) replicates each yield point until the 95%
/// CI on the recovery tightens. Results are bit-identical for any
/// CIM_THREADS.
#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "exp/campaign.hpp"
#include "nn/fault_tolerant_training.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace cim;

int main() {
  bench::WallTimer total;
  util::Rng rng(3);
  const auto train = nn::generate_digits(600, rng, 0.1);
  const auto test = nn::generate_digits(200, rng, 0.1);

  // One shared base net: trials copy it, so the campaign measures the
  // recovery distribution of *this* network, not training noise.
  util::Rng net_rng(7);
  nn::Mlp base_net({nn::kPixels, 24, nn::kClasses}, net_rng);
  base_net.fit(train, 40, 0.05, net_rng);

  constexpr std::array<double, 5> kYields{0.95, 0.9, 0.85, 0.8, 0.7};

  exp::CampaignConfig ccfg;
  ccfg.name = "retraining_ablation";
  ccfg.seed = 17;
  ccfg.cells = kYields.size();
  for (const double y : kYields) {
    char label[16];
    std::snprintf(label, sizeof(label), "y%.2f", y);
    ccfg.cell_names.emplace_back(label);
  }
  ccfg.block = 1;  // a retrain run is an expensive, chunky task
  ccfg.min_trials = 2;
  ccfg.max_trials = 4;
  ccfg.max_blocks_per_round = 2;
  ccfg.ci_confidence = 0.95;
  ccfg.ci_target = 0.03;  // absolute, on recovered accuracy
  ccfg.pool = &util::ThreadPool::global();
  ccfg = exp::apply_env(ccfg);

  bench::WallTimer mc;
  const auto res = exp::run_campaign(
      ccfg, [&](std::size_t cell, std::uint64_t /*rep*/, util::Rng& trng) {
        const double yield = kYields[cell];
        nn::Mlp net = base_net;  // fresh copy: damage must not accumulate

        nn::CrossbarLinearConfig cfg;
        cfg.array.seed = trng();
        cfg.array.model_ir_drop = false;
        cfg.program_verify = true;
        nn::CrossbarLinear l0(net.layers()[0].w, net.layers()[0].b, cfg);
        cfg.array.seed = trng();
        nn::CrossbarLinear l1(net.layers()[1].w, net.layers()[1].b, cfg);

        l0.apply_yield(yield, trng);
        l1.apply_yield(yield, trng);

        const nn::RetrainResult r = nn::fault_tolerant_retrain(
            net, l0, l1, train, test, {.epochs = 6, .lr = 0.01}, trng);
        return r.accuracy_after - r.accuracy_before;
      });
  const double mc_ms = mc.elapsed_ms();

  util::Table t({"yield", "recovered (mean)", "ci95 half", "recovered min",
                 "trials"});
  t.set_title("Fault-tolerant retraining [38] — recovery across yields "
              "(adaptive Monte-Carlo)");
  const double z = obs::z_for_confidence(ccfg.ci_confidence);
  double recovered_sum = 0.0;
  for (std::size_t i = 0; i < kYields.size(); ++i) {
    const obs::StreamStat& rec = res.cells[i].stat;
    recovered_sum += rec.mean;
    t.add_row({util::Table::num(kYields[i], 2), util::Table::num(rec.mean, 3),
               util::Table::num(rec.ci_half_width(z), 3),
               util::Table::num(rec.min, 3), std::to_string(rec.n)});
  }
  t.print(std::cout);
  std::cout << "shape check ([38]): retraining with a deterministic fault "
               "mask recovers most of the lost accuracy down to ~80% yield; "
               "below that the surviving cells run out of capacity.\n";
  bench::report("bench_retraining_ablation", total.elapsed_ms(),
                static_cast<double>(res.total_trials),
                {{"mc_wall_ms", mc_ms},
                 {"mean_recovered",
                  recovered_sum / static_cast<double>(kYields.size())},
                 {"campaign_rounds", static_cast<double>(res.rounds)}});
  return 0;
}
