#include "eda/majority_mapper.hpp"

#include <algorithm>
#include <vector>

namespace cim::eda {

MajSchedule schedule_revamp(const Mig& mig) {
  MajSchedule sched;
  const auto levels = mig.levels();

  // Bucket majority nodes by level, in node order.
  for (std::uint32_t i = 1; i < mig.num_nodes(); ++i)
    if (mig.is_maj(i)) sched.num_levels = std::max(sched.num_levels, levels[i]);
  std::vector<std::vector<std::uint32_t>> by_level(sched.num_levels + 1);
  for (std::uint32_t i = 1; i < mig.num_nodes(); ++i)
    if (mig.is_maj(i)) by_level[levels[i]].push_back(i);

  std::vector<std::size_t> row_of(mig.num_nodes());  // placed nodes' rows
  // Per-literal counts for the grouping, zero between rounds.
  std::vector<std::size_t> freq(2 * mig.num_nodes(), 0);

  std::size_t row_index = 0;
  for (std::size_t level = 1; level < by_level.size(); ++level) {
    const auto& nodes = by_level[level];
    if (nodes.empty()) continue;
    sched.max_row_width = std::max(sched.max_row_width, nodes.size());
    sched.device_count += nodes.size();

    // READ: every distinct producer row below this level must be latched.
    // Conservatively: one read per earlier level row that feeds this level
    // (inputs ride the instruction register for free).
    std::vector<bool> needs_read(row_index, false);
    for (const auto n : nodes)
      for (const auto f : mig.node(n).fanin) {
        const auto fn = Mig::node_of(f);
        if (mig.is_maj(fn)) needs_read[row_of[fn]] = true;
      }
    for (const bool b : needs_read)
      if (b) ++sched.read_steps;

    // INIT: reset row + write preloads = 2 steps.
    sched.init_steps += 2;

    // fanin[0] is preloaded; the other two are left for the grouping, which
    // greedily shares one of them per apply step.
    struct Pending {
      std::uint32_t node;
      std::size_t col;
      Mig::Lit a, b, pre;
    };
    std::vector<Pending> pending;
    for (const auto n : nodes) {
      const auto& f = mig.node(n).fanin;
      row_of[n] = row_index;
      pending.push_back({n, pending.size(), f[1], f[2], f[0]});
    }

    std::vector<bool> done(pending.size(), false);
    for (std::size_t remaining = pending.size(); remaining > 0;) {
      // Pick the literal covering the most unfinished nodes (the smallest
      // such literal on a tie).
      for (std::size_t k = 0; k < pending.size(); ++k) {
        if (done[k]) continue;
        ++freq[pending[k].a];
        ++freq[pending[k].b];
      }
      Mig::Lit best = 0;
      std::size_t best_n = 0;
      for (std::size_t k = 0; k < pending.size(); ++k) {
        if (done[k]) continue;
        for (const Mig::Lit lit : {pending[k].a, pending[k].b})
          if (freq[lit] > best_n || (freq[lit] == best_n && lit < best)) {
            best = lit;
            best_n = freq[lit];
          }
      }
      for (std::size_t k = 0; k < pending.size(); ++k)
        freq[pending[k].a] = freq[pending[k].b] = 0;
      // All nodes having `best` as one operand join this group.
      for (std::size_t k = 0; k < pending.size(); ++k) {
        const auto& e = pending[k];
        if (done[k] || (e.a != best && e.b != best)) continue;
        sched.plan.push_back({e.node, level, row_index, e.col, e.pre, best,
                              e.a == best ? e.b : e.a});
        done[k] = true;
        --remaining;
      }
      ++sched.maj_steps;
    }
    ++row_index;
  }
  sched.rows = row_index;
  return sched;
}

}  // namespace cim::eda
