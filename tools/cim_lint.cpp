/// \file cim_lint.cpp
/// \brief `cim-lint` — offline static analysis of dumped micro-op programs.
///
/// Reads one or more `cim-prog-v1` files (see eda/verify/program_io.hpp;
/// `-` reads stdin), runs `verify::check_program` over each (family linter,
/// wear certificate, cost certificate), and — when a tile pool is given —
/// checks the whole batch for cross-tile scheduling hazards as if the
/// programs were dispatched concurrently. Exit status is 0 when every
/// program is clean, 1 on any error-severity diagnostic, and 2 on
/// usage/parse failures.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "device/technology.hpp"
#include "eda/verify/hazard.hpp"
#include "eda/verify/program_io.hpp"
#include "eda/verify/verify.hpp"
#include "eda/verify/wear_cost.hpp"
#include "flag_number.hpp"

namespace {

namespace verify = cim::eda::verify;
namespace device = cim::device;

void print_usage(std::ostream& os) {
  os << "usage: cim-lint [options] <program.cimprog>... (- reads stdin)\n"
        "\n"
        "Static analysis of dumped cim-prog-v1 micro-op programs: family\n"
        "dataflow lint, static wear certification, static cost estimate,\n"
        "and (with --tiles) cross-tile hazard analysis of the batch.\n"
        "\n"
        "options:\n"
        "  --tech <name>           device technology backing the endurance\n"
        "                          and cost models (ReRAM-HfOx, ReRAM-TiOx,\n"
        "                          PCM, STT-MRAM, SRAM, DRAM; default\n"
        "                          STT-MRAM)\n"
        "  --planned-evals <n>     gate the wear certificate against n\n"
        "                          lifetime program evaluations\n"
        "  --time-budget-ns <x>    gate the static time estimate\n"
        "  --energy-budget-pj <x>  gate the worst-case energy estimate\n"
        "  --tiles <n>             hazard-check the batch round-robin over\n"
        "                          n tiles, treating all programs as\n"
        "                          concurrently scheduled\n"
        "  --adcs <n>              physical ADC channels per tile for the\n"
        "                          hazard check (default 8)\n"
        "  --wear-json <path>      export static per-cell write bounds in\n"
        "                          cim-health-heatmap-v1 JSON\n"
        "  --quiet                 verdicts only, no diagnostics\n"
        "  -h, --help              this message\n";
}

std::optional<device::Technology> parse_tech(const std::string& name) {
  for (const auto t :
       {device::Technology::kReRamHfOx, device::Technology::kReRamTiOx,
        device::Technology::kPcm, device::Technology::kSttMram,
        device::Technology::kSram, device::Technology::kDram}) {
    if (name == device::technology_name(t)) return t;
  }
  return std::nullopt;
}

struct Options {
  verify::CheckOptions check;
  std::size_t tiles = 0;
  std::size_t adcs = 8;
  std::string wear_json;
  bool quiet = false;
  std::vector<std::string> files;
};

std::optional<Options> parse_args(int argc, char** argv) {
  Options opt;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "cim-lint: " << argv[i] << " needs a value\n";
      return nullptr;
    }
    return argv[++i];
  };
  auto number = [&](int& i, auto& out) {
    const char* v = value(i);
    return v != nullptr && parse_flag_number("cim-lint", argv[i - 1], v, out);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      print_usage(std::cout);
      std::exit(0);
    } else if (arg == "--tech") {
      const char* v = value(i);
      if (v == nullptr) return std::nullopt;
      const auto tech = parse_tech(v);
      if (!tech) {
        std::cerr << "cim-lint: unknown technology '" << v << "'\n";
        return std::nullopt;
      }
      opt.check.verify.tech = *tech;
    } else if (arg == "--planned-evals") {
      if (!number(i, opt.check.planned_evaluations)) return std::nullopt;
    } else if (arg == "--time-budget-ns") {
      if (!number(i, opt.check.cost_budget.time_ns)) return std::nullopt;
    } else if (arg == "--energy-budget-pj") {
      if (!number(i, opt.check.cost_budget.energy_pj)) return std::nullopt;
    } else if (arg == "--tiles") {
      if (!number(i, opt.tiles)) return std::nullopt;
    } else if (arg == "--adcs") {
      if (!number(i, opt.adcs)) return std::nullopt;
    } else if (arg == "--wear-json") {
      const char* v = value(i);
      if (v == nullptr) return std::nullopt;
      opt.wear_json = v;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "-") {
      opt.files.push_back(arg);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "cim-lint: unknown option '" << arg << "'\n";
      return std::nullopt;
    } else {
      opt.files.push_back(arg);
    }
  }
  if (opt.files.empty()) {
    print_usage(std::cerr);
    return std::nullopt;
  }
  return opt;
}

struct Analyzed {
  std::string name;
  verify::ProgramAccess access;
};

/// The program's family tag and its static check.
std::pair<const char*, verify::ProgramCheck> check(
    const verify::ParsedProgram& p, const verify::CheckOptions& opts) {
  if (p.family == verify::ProgramFamily::kImply)
    return {"IMPLY", verify::check_program(p.imply, nullptr, opts)};
  if (p.family == verify::ProgramFamily::kMagic)
    return {"MAGIC", verify::check_program(p.magic, nullptr, opts)};
  return {"ReVAMP", verify::check_program(p.revamp, nullptr, opts)};
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed_opts = parse_args(argc, argv);
  if (!parsed_opts) return 2;
  const Options& opt = *parsed_opts;

  std::vector<Analyzed> batch;
  batch.reserve(opt.files.size());
  bool any_error = false;

  for (const auto& file : opt.files) {
    std::ifstream fstream;
    std::istream* is = &std::cin;
    if (file != "-") {
      fstream.open(file);
      if (!fstream) {
        std::cerr << "cim-lint: cannot open '" << file << "'\n";
        return 2;
      }
      is = &fstream;
    }
    std::string parse_error;
    auto program = verify::parse_program(*is, &parse_error);
    if (!program) {
      std::cerr << "cim-lint: " << file << ": " << parse_error << "\n";
      return 2;
    }

    const std::string name = file == "-" ? "<stdin>" : file;
    auto [family, chk] = check(*program, opt.check);
    const auto& rep = chk.report;
    const auto& cost = chk.cost;

    if (!opt.quiet) {
      for (const auto& d : rep.diagnostics)
        std::cout << name << ": " << d.to_string() << "\n";
    }
    std::cout << name << " [" << family << "]: "
              << (rep.clean() ? "clean" : "NOT CLEAN") << " ("
              << rep.errors() << " error(s), " << rep.warnings()
              << " warning(s)); max writes/cell "
              << chk.access.max_write_bound() << "; static cost "
              << cost.time_ns << " ns, [" << cost.energy_pj_min << ", "
              << cost.energy_pj_max << "] pJ (exp " << cost.energy_pj_exp
              << (cost.exact_expectation ? ", exact)" : ", approx)") << "\n";
    any_error = any_error || !rep.clean();
    batch.push_back({name, std::move(chk.access)});
  }

  // Cross-tile hazard analysis: the batch as one concurrent dispatch.
  if (opt.tiles > 0 && !batch.empty()) {
    verify::TileInfo tile;
    tile.adc_channels = opt.adcs;
    for (const auto& a : batch) {
      tile.rows = std::max(tile.rows, a.access.rows);
      tile.cols = std::max(tile.cols, a.access.cols);
    }
    verify::TilePool pool;
    pool.tiles.assign(opt.tiles, tile);
    std::vector<verify::ScheduledProgram> sched;
    sched.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      verify::ScheduledProgram p;
      p.name = batch[i].name;
      p.tile = i % opt.tiles;
      p.access = batch[i].access;
      p.duration = 0.0;  // always active: worst-case concurrency
      sched.push_back(std::move(p));
    }
    const auto hazards = verify::analyze_hazards(pool, sched);
    if (!opt.quiet) {
      for (const auto& d : hazards.diagnostics)
        std::cout << "hazard: " << d.to_string() << "\n";
    }
    std::cout << "hazard check (" << opt.tiles << " tile(s), " << opt.adcs
              << " ADC(s)): " << (hazards.clean() ? "clean" : "NOT CLEAN")
              << " (" << hazards.errors() << " error(s), "
              << hazards.warnings() << " warning(s))\n";
    any_error = any_error || !hazards.clean();
  }

  if (!opt.wear_json.empty()) {
    std::vector<verify::StaticWearEntry> entries;
    entries.reserve(batch.size());
    for (const auto& a : batch) entries.push_back({a.name, &a.access});
    std::ofstream os(opt.wear_json);
    if (!os) {
      std::cerr << "cim-lint: cannot write '" << opt.wear_json << "'\n";
      return 2;
    }
    verify::write_static_wear_json(os, entries);
    std::cout << "static wear heatmap -> " << opt.wear_json << "\n";
  }
  return any_error ? 1 : 0;
}
