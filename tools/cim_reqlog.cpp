/// \file cim_reqlog.cpp
/// \brief `cim-reqlog` — offline analyzer for cim-reqlog-v1 serving logs.
///
/// Reads a reqlog (see serve/reqlog.hpp; `-` reads stdin) and prints the
/// run's latency-decomposition table (where the nanoseconds went: batch
/// coalescing, queueing, issue overhead, bit-serial service, digital
/// reduce — mean and p99 per component), the top-k slowest requests with
/// their per-request decomposition, and per-replica / per-kind / per-tier
/// attribution. Optional gates make it CI-friendly: exit status is 0 when
/// every gate passes, 1 on a gate violation, and 2 on usage/parse
/// failures — the cim-lint convention.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "flag_number.hpp"
#include "serve/reqlog.hpp"
#include "serve/request.hpp"
#include "serve/window.hpp"

namespace {

using cim::serve::Completion;
using cim::serve::exact_quantile;
using cim::serve::ReqLog;

void print_usage(std::ostream& os) {
  os << "usage: cim-reqlog [options] <run.cimreqlog> (- reads stdin)\n"
        "\n"
        "Analyzes a cim-reqlog-v1 serving log: latency decomposition\n"
        "(batch wait / queue wait / issue / bit-serial / reduce), top-k\n"
        "slowest requests, and per-replica/kind/tier attribution.\n"
        "\n"
        "options:\n"
        "  --top <k>              slowest requests to list (default 5)\n"
        "  --max-p99-ns <x>       gate: end-to-end p99 must be <= x\n"
        "  --max-shed-frac <x>    gate: rejected / offered must be <= x\n"
        "  --check-decomposition  gate: every completion's components must\n"
        "                         sum to done_ns - arrival_ns bitwise\n"
        "  --quiet                verdicts only, no tables\n"
        "  -h, --help             this message\n";
}

struct Options {
  std::size_t top = 5;
  double max_p99_ns = -1.0;
  double max_shed_frac = -1.0;
  bool check_decomposition = false;
  bool quiet = false;
  std::string file;
};

/// One row of the decomposition table: a component's share of the total.
struct Row {
  const char* name;
  double sum = 0.0;
  std::vector<double> values;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "cim-reqlog: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "-h" || arg == "--help") {
      print_usage(std::cout);
      return 0;
    } else if (arg == "--top") {
      if (!parse_flag_number("cim-reqlog", arg, next(), opt.top)) return 2;
    } else if (arg == "--max-p99-ns") {
      if (!parse_flag_number("cim-reqlog", arg, next(), opt.max_p99_ns))
        return 2;
    } else if (arg == "--max-shed-frac") {
      if (!parse_flag_number("cim-reqlog", arg, next(), opt.max_shed_frac))
        return 2;
    } else if (arg == "--check-decomposition") {
      opt.check_decomposition = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::cerr << "cim-reqlog: unknown option " << arg << "\n";
      print_usage(std::cerr);
      return 2;
    } else if (opt.file.empty()) {
      opt.file = arg;
    } else {
      std::cerr << "cim-reqlog: exactly one reqlog file expected\n";
      return 2;
    }
  }
  if (opt.file.empty()) {
    print_usage(std::cerr);
    return 2;
  }

  ReqLog log;
  try {
    log = opt.file == "-" ? cim::serve::read_reqlog(std::cin)
                          : cim::serve::read_reqlog_file(opt.file);
  } catch (const std::exception& e) {
    std::cerr << "cim-reqlog: " << e.what() << "\n";
    return 2;
  }

  const std::size_t completed = log.completions.size();
  const std::size_t rejected = log.rejections.size();
  const std::size_t offered = completed + rejected;
  std::printf("cim-reqlog: %zu completed, %zu rejected (%zu offered)\n",
              completed, rejected, offered);

  std::vector<double> latencies;
  latencies.reserve(completed);
  Row rows[] = {{"batch_wait", 0.0, {}},
                {"queue_wait", 0.0, {}},
                {"issue(amortized)", 0.0, {}},
                {"bitserial", 0.0, {}},
                {"reduce", 0.0, {}}};
  double latency_sum = 0.0;
  std::size_t decomposition_mismatches = 0;
  for (const Completion& c : log.completions) {
    const double l = c.latency_ns();
    latencies.push_back(l);
    latency_sum += l;
    const double parts[] = {c.batch_wait_ns, c.queue_wait_ns,
                            c.issue_wait_ns /
                                static_cast<double>(
                                    c.batch_size > 0 ? c.batch_size : 1),
                            c.bitserial_ns, c.reduce_ns};
    for (std::size_t i = 0; i < 5; ++i) {
      rows[i].sum += parts[i];
      rows[i].values.push_back(parts[i]);
    }
    if (c.arrival_ns + c.decomposition_sum() != c.done_ns)
      ++decomposition_mismatches;
  }

  std::sort(latencies.begin(), latencies.end());
  const double p50 = exact_quantile(latencies, 0.50);
  const double p99 = exact_quantile(latencies, 0.99);
  const double mean =
      completed > 0 ? latency_sum / static_cast<double>(completed) : 0.0;

  if (!opt.quiet && completed > 0) {
    std::printf("\nlatency: mean %.3f us  p50 %.3f us  p99 %.3f us  "
                "max %.3f us\n",
                mean * 1e-3, p50 * 1e-3, p99 * 1e-3,
                latencies.back() * 1e-3);
    std::printf("\ndecomposition (amortized issue share):\n");
    std::printf("  %-18s %12s %12s %8s\n", "component", "mean_us", "p99_us",
                "share");
    for (Row& r : rows) {
      std::sort(r.values.begin(), r.values.end());
      const double m = r.sum / static_cast<double>(completed);
      std::printf("  %-18s %12.3f %12.3f %7.1f%%\n", r.name, m * 1e-3,
                  exact_quantile(r.values, 0.99) * 1e-3,
                  mean > 0.0 ? 100.0 * m / mean : 0.0);
    }

    // Top-k slowest, with per-request decomposition.
    std::vector<const Completion*> by_latency;
    by_latency.reserve(completed);
    for (const Completion& c : log.completions) by_latency.push_back(&c);
    std::sort(by_latency.begin(), by_latency.end(),
              [](const Completion* a, const Completion* b) {
                if (a->latency_ns() != b->latency_ns())
                  return a->latency_ns() > b->latency_ns();
                return a->id < b->id;
              });
    const std::size_t k = std::min(opt.top, by_latency.size());
    std::printf("\ntop %zu slowest:\n", k);
    for (std::size_t i = 0; i < k; ++i) {
      const Completion& c = *by_latency[i];
      std::printf("  id %llu: %.3f us (batch %.3f + queue %.3f + issue %.3f "
                  "+ serve %.3f us) replica %zu batch %zu tier %s\n",
                  static_cast<unsigned long long>(c.id),
                  c.latency_ns() * 1e-3, c.batch_wait_ns * 1e-3,
                  c.queue_wait_ns * 1e-3, c.issue_wait_ns * 1e-3,
                  (c.bitserial_ns + c.reduce_ns) * 1e-3, c.replica,
                  c.batch_size, cim::crossbar::tier_name(c.tier));
    }

    // Attribution tables: who is slow, not just how slow.
    auto attribution = [&](const char* title, auto key_of) {
      std::map<std::string, std::pair<std::size_t, double>> groups;
      for (const Completion& c : log.completions) {
        auto& [count, sum] = groups[key_of(c)];
        ++count;
        sum += c.latency_ns();
      }
      std::printf("\nby %s:\n", title);
      for (const auto& [key, agg] : groups)
        std::printf("  %-12s %8zu requests  mean %.3f us\n", key.c_str(),
                    agg.first,
                    agg.second / static_cast<double>(agg.first) * 1e-3);
    };
    attribution("replica", [](const Completion& c) {
      return "replica-" + std::to_string(c.replica);
    });
    attribution("kind", [](const Completion& c) {
      return std::string(kind_name(c.kind));
    });
    attribution("tier", [](const Completion& c) {
      return std::string(cim::crossbar::tier_name(c.tier)) +
             (c.escalated ? "(esc)" : "");
    });
  }

  // Gates.
  bool pass = true;
  if (opt.check_decomposition) {
    const bool ok = decomposition_mismatches == 0;
    std::printf("decomposition check: %s (%zu mismatching of %zu)\n",
                ok ? "exact" : "FAILED", decomposition_mismatches, completed);
    pass = pass && ok;
  }
  if (opt.max_p99_ns >= 0.0) {
    const bool ok = p99 <= opt.max_p99_ns;
    std::printf("p99 gate: %.0f ns vs budget %.0f ns: %s\n", p99,
                opt.max_p99_ns, ok ? "pass" : "FAILED");
    pass = pass && ok;
  }
  if (opt.max_shed_frac >= 0.0) {
    const double shed =
        offered > 0
            ? static_cast<double>(rejected) / static_cast<double>(offered)
            : 0.0;
    const bool ok = shed <= opt.max_shed_frac;
    std::printf("shed gate: %.4f vs budget %.4f: %s\n", shed,
                opt.max_shed_frac, ok ? "pass" : "FAILED");
    pass = pass && ok;
  }
  return pass ? 0 : 1;
}
