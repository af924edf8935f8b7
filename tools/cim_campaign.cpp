/// \file cim_campaign.cpp
/// \brief `cim-campaign` — inspector for cim-campaign-v1 manifests.
///
/// The campaign runner (src/exp/) writes its checkpoint/result manifests in
/// the text `cim-campaign-v1` format; this tool is the operator's window
/// into them:
///
///   cim-campaign status <m.cimcampaign>     progress + per-cell CI table
///   cim-campaign merge -o out a b [c...]    combine shard manifests of the
///                                           same campaign (StreamStat merge)
///   cim-campaign diff a b                   compare two manifests cell by
///                                           cell (bitwise by default)
///
/// Exit status follows the cim-lint convention: 0 = success / no
/// difference / gates pass, 1 = difference found or a gate violated
/// (--require-converged), 2 = usage or parse failure.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "exp/checkpoint.hpp"
#include "flag_number.hpp"
#include "obs/dataset.hpp"

namespace {

using cim::exp::CampaignManifest;
using cim::exp::CellCheckpoint;

void print_usage(std::ostream& os) {
  os << "usage: cim-campaign <command> [options] <manifest...>\n"
        "\n"
        "Inspects cim-campaign-v1 manifests written by the exp campaign\n"
        "runner (checkpoints and final results are the same format).\n"
        "\n"
        "commands:\n"
        "  status <m>             campaign identity, progress, per-cell\n"
        "                         trial counts / means / CI half-widths\n"
        "    --confidence <p>     CI level for the table (default 0.95)\n"
        "    --require-converged  gate: exit 1 unless every cell froze\n"
        "                         without hitting its trial cap\n"
        "  merge -o <out> <a> <b> [...]  merge shard manifests of the SAME\n"
        "                         campaign (fingerprints must match);\n"
        "                         summaries merge, trials/rounds add\n"
        "  diff <a> <b>           compare cell summaries; exit 1 if they\n"
        "                         differ (campaign identity must match)\n"
        "    --tol <x>            tolerate |mean delta| <= x (default 0:\n"
        "                         bitwise comparison)\n"
        "  -h, --help             this message\n";
}

bool load_or_die(const std::string& path, CampaignManifest& m) {
  std::string err;
  if (!cim::exp::load_manifest(path, m, &err)) {
    std::cerr << "cim-campaign: " << err << "\n";
    return false;
  }
  return true;
}

int cmd_status(const std::vector<std::string>& args) {
  double confidence = 0.95;
  bool require_converged = false;
  std::string file;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--confidence" && i + 1 < args.size()) {
      ++i;
      if (!parse_flag_number("cim-campaign", args[i - 1], args[i], confidence))
        return 2;
    } else if (args[i] == "--require-converged") {
      require_converged = true;
    } else if (file.empty()) {
      file = args[i];
    } else {
      print_usage(std::cerr);
      return 2;
    }
  }
  if (file.empty() || confidence <= 0.0 || confidence >= 1.0) {
    print_usage(std::cerr);
    return 2;
  }
  CampaignManifest m;
  if (!load_or_die(file, m)) return 2;

  const double z = cim::obs::z_for_confidence(confidence);
  std::size_t frozen = 0;
  std::size_t capped = 0;
  for (const CellCheckpoint& c : m.cell_state) {
    frozen += c.frozen ? 1 : 0;
    capped += c.capped ? 1 : 0;
  }
  std::printf("campaign %s  seed %llu  cells %zu  block %llu\n",
              m.name.c_str(), static_cast<unsigned long long>(m.seed),
              m.cells, static_cast<unsigned long long>(m.block));
  std::printf("progress: rounds %llu  trials %llu  frozen %zu/%zu"
              "  capped %zu\n",
              static_cast<unsigned long long>(m.rounds),
              static_cast<unsigned long long>(m.total_trials), frozen,
              m.cells, capped);
  std::printf("%6s %8s %14s %14s %14s  %s\n", "cell", "n", "mean", "stddev",
              "ci_half", "state");
  for (std::size_t i = 0; i < m.cell_state.size(); ++i) {
    const CellCheckpoint& c = m.cell_state[i];
    std::printf("%6zu %8llu %14.6g %14.6g %14.6g  %s\n", i,
                static_cast<unsigned long long>(c.stat.n), c.stat.mean,
                c.stat.stddev(), c.stat.ci_half_width(z),
                c.capped ? "capped" : (c.frozen ? "frozen" : "running"));
  }
  const bool converged = frozen == m.cells && capped == 0;
  std::printf("status: %s\n", converged          ? "converged"
                              : frozen == m.cells ? "finished (capped cells)"
                                                  : "in progress");
  if (require_converged && !converged) return 1;
  return 0;
}

int cmd_merge(const std::vector<std::string>& args) {
  std::string out;
  std::vector<std::string> files;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-o" && i + 1 < args.size())
      out = args[++i];
    else
      files.push_back(args[i]);
  }
  if (out.empty() || files.size() < 2) {
    print_usage(std::cerr);
    return 2;
  }
  CampaignManifest acc;
  if (!load_or_die(files[0], acc)) return 2;
  for (std::size_t f = 1; f < files.size(); ++f) {
    CampaignManifest m;
    if (!load_or_die(files[f], m)) return 2;
    if (m.fingerprint != acc.fingerprint) {
      std::cerr << "cim-campaign: '" << files[f]
                << "' belongs to a different campaign than '" << files[0]
                << "' (fingerprint mismatch)\n";
      return 2;
    }
    for (std::size_t c = 0; c < acc.cell_state.size(); ++c) {
      CellCheckpoint& dst = acc.cell_state[c];
      const CellCheckpoint& src = m.cell_state[c];
      dst.stat.merge(src.stat);
      dst.cursor = std::max(dst.cursor, src.cursor);
      dst.frozen = dst.frozen || src.frozen;
      dst.capped = dst.capped || src.capped;
    }
    acc.rounds += m.rounds;
    acc.total_trials += m.total_trials;
  }
  if (!cim::exp::save_manifest(out, acc)) {
    std::cerr << "cim-campaign: cannot write '" << out << "'\n";
    return 2;
  }
  std::printf("merged %zu manifests -> %s (%llu trials)\n", files.size(),
              out.c_str(), static_cast<unsigned long long>(acc.total_trials));
  return 0;
}

int cmd_diff(const std::vector<std::string>& args) {
  double tol = 0.0;
  std::vector<std::string> files;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--tol" && i + 1 < args.size()) {
      ++i;
      if (!parse_flag_number("cim-campaign", args[i - 1], args[i], tol))
        return 2;
    } else {
      files.push_back(args[i]);
    }
  }
  if (files.size() != 2) {
    print_usage(std::cerr);
    return 2;
  }
  CampaignManifest a;
  CampaignManifest b;
  if (!load_or_die(files[0], a) || !load_or_die(files[1], b)) return 2;
  if (a.fingerprint != b.fingerprint) {
    std::cerr << "cim-campaign: manifests belong to different campaigns "
                 "(fingerprint mismatch)\n";
    return 2;
  }
  std::size_t differing = 0;
  for (std::size_t c = 0; c < a.cell_state.size(); ++c) {
    const cim::obs::StreamStat& sa = a.cell_state[c].stat;
    const cim::obs::StreamStat& sb = b.cell_state[c].stat;
    const bool bit_equal = sa.n == sb.n && sa.mean == sb.mean &&
                           sa.m2 == sb.m2 && sa.min == sb.min &&
                           sa.max == sb.max;
    if (bit_equal) continue;
    if (tol > 0.0 && sa.n == sb.n && std::fabs(sa.mean - sb.mean) <= tol)
      continue;
    ++differing;
    std::printf("cell %zu: n %llu vs %llu, mean %.17g vs %.17g "
                "(delta %.3g)\n",
                c, static_cast<unsigned long long>(sa.n),
                static_cast<unsigned long long>(sb.n), sa.mean, sb.mean,
                sa.mean - sb.mean);
  }
  if (a.total_trials != b.total_trials)
    std::printf("total trials: %llu vs %llu\n",
                static_cast<unsigned long long>(a.total_trials),
                static_cast<unsigned long long>(b.total_trials));
  if (differing == 0) {
    std::printf("manifests agree (%zu cells)\n", a.cell_state.size());
    return 0;
  }
  std::printf("%zu of %zu cells differ\n", differing, a.cell_state.size());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty() || args[0] == "-h" || args[0] == "--help") {
    print_usage(args.empty() ? std::cerr : std::cout);
    return args.empty() ? 2 : 0;
  }
  const std::string cmd = args[0];
  args.erase(args.begin());
  if (cmd == "status") return cmd_status(args);
  if (cmd == "merge") return cmd_merge(args);
  if (cmd == "diff") return cmd_diff(args);
  std::cerr << "cim-campaign: unknown command '" << cmd << "'\n";
  print_usage(std::cerr);
  return 2;
}
