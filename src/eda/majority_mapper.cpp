#include "eda/majority_mapper.hpp"

#include <algorithm>
#include <map>

namespace cim::eda {

MajSchedule schedule_revamp(const Mig& mig) {
  MajSchedule sched;
  const auto levels = mig.levels();

  // Bucket majority nodes by level.
  std::map<std::size_t, std::vector<std::uint32_t>> by_level;
  for (std::uint32_t i = 1; i < mig.num_nodes(); ++i)
    if (mig.is_maj(i)) by_level[levels[i]].push_back(i);

  sched.num_levels = by_level.empty() ? 0 : by_level.rbegin()->first;
  sched.rows = by_level.size();

  std::map<std::uint32_t, std::pair<std::size_t, std::size_t>> placement;

  std::size_t row_index = 0;
  for (const auto& [level, nodes] : by_level) {
    sched.max_row_width = std::max(sched.max_row_width, nodes.size());
    sched.device_count += nodes.size();

    // READ: every distinct producer row below this level must be latched.
    // Conservatively: one read per earlier level row that feeds this level
    // (inputs ride the instruction register for free).
    std::vector<bool> needs_read(row_index, false);
    for (const auto n : nodes)
      for (const auto f : mig.node(n).fanin) {
        const auto fn = Mig::node_of(f);
        if (mig.is_maj(fn)) needs_read[placement.at(fn).first] = true;
      }
    for (const bool b : needs_read)
      if (b) ++sched.read_steps;

    // INIT: reset row + write preloads = 2 steps.
    sched.init_steps += 2;

    // Choose per node which fanin is preloaded and greedily group the
    // remaining pair by a shared literal for the apply steps.
    struct Pending {
      std::uint32_t node;
      Mig::Lit a, b, pre;
    };
    std::vector<Pending> pending;
    std::size_t col = 0;
    for (const auto n : nodes) {
      // fanin[0] is preloaded; the other two are left for the grouping.
      const auto& f = mig.node(n).fanin;
      placement[n] = {row_index, col};
      pending.push_back({n, f[1], f[2], f[0]});
      ++col;
    }

    // Frequency of literals among remaining (a, b) pairs.
    auto group_pass = [&]() {
      std::size_t groups = 0;
      std::vector<bool> done(pending.size(), false);
      std::size_t remaining = pending.size();
      while (remaining > 0) {
        // Pick the literal covering the most unfinished nodes.
        std::map<Mig::Lit, std::size_t> freq;
        for (std::size_t k = 0; k < pending.size(); ++k) {
          if (done[k]) continue;
          ++freq[pending[k].a];
          ++freq[pending[k].b];
        }
        Mig::Lit best = freq.begin()->first;
        std::size_t best_n = 0;
        for (const auto& [lit, n] : freq)
          if (n > best_n) {
            best = lit;
            best_n = n;
          }
        // All nodes having `best` as one operand join this group.
        for (std::size_t k = 0; k < pending.size(); ++k) {
          if (done[k]) continue;
          if (pending[k].a == best || pending[k].b == best) {
            auto& plan_entry = pending[k];
            const Mig::Lit shared = best;
            const Mig::Lit per_col =
                (plan_entry.a == best) ? plan_entry.b : plan_entry.a;
            MajNodePlan p;
            p.node = plan_entry.node;
            p.level = level;
            p.row = placement.at(plan_entry.node).first;
            p.col = placement.at(plan_entry.node).second;
            p.preload = plan_entry.pre;
            p.shared = shared;
            p.per_column = per_col;
            sched.plan.push_back(p);
            done[k] = true;
            --remaining;
          }
        }
        ++groups;
      }
      return groups;
    };
    sched.maj_steps += group_pass();
    ++row_index;
  }
  return sched;
}

}  // namespace cim::eda
