/// \file test_record_fuzz.cpp
/// \brief Every parser of a text format against its checked-in fixtures:
///        dump(parse(file)) reproduces each comment-free fixture byte for
///        byte, and a deterministic mutation fuzzer (util::Rng, fixed seed)
///        feeds each parser truncations, bit flips, hostile numbers,
///        deleted and duplicated lines, duplicated JSON keys, CRLF and
///        trailing whitespace. A parser must either reject an input with its
///        documented error naming a line of it, or accept it with a dump
///        that parses back to itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "eda/verify/program_io.hpp"
#include "exp/checkpoint.hpp"
#include "obs/obs.hpp"
#include "obs/record.hpp"
#include "serve/reqlog.hpp"
#include "serve/trace_io.hpp"
#include "util/rng.hpp"

#ifndef CIM_TEST_DATA_DIR
#define CIM_TEST_DATA_DIR "tests/data"
#endif

namespace {

std::string slurp(const std::string& name) {
  std::ifstream in(std::string(CIM_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// dump(parse(text)) for each format; nullopt with `error` set when the
/// parser rejects the text.
std::optional<std::string> redump_program(const std::string& text,
                                          std::string& error) {
  namespace verify = cim::eda::verify;
  std::istringstream is(text);
  const auto p = verify::parse_program(is, &error);
  if (!p) return std::nullopt;
  std::ostringstream os;
  switch (p->family) {
    case verify::ProgramFamily::kImply:
      verify::dump_program(os, p->imply);
      break;
    case verify::ProgramFamily::kMagic:
      verify::dump_program(os, p->magic);
      break;
    case verify::ProgramFamily::kRevamp:
      verify::dump_program(os, p->revamp);
      break;
  }
  return os.str();
}

std::optional<std::string> redump_trace(const std::string& text,
                                        std::string& error) {
  std::istringstream is(text);
  const auto reqs = cim::serve::parse_trace(is, &error);
  if (!reqs) return std::nullopt;
  std::ostringstream os;
  cim::serve::dump_trace(os, *reqs);
  return os.str();
}

std::optional<std::string> redump_reqlog(const std::string& text,
                                         std::string& error) {
  std::istringstream is(text);
  try {
    const cim::serve::ReqLog log = cim::serve::read_reqlog(is);
    std::ostringstream os;
    cim::serve::write_reqlog(os, log);
    return os.str();
  } catch (const std::runtime_error& e) {
    error = e.what();
    return std::nullopt;
  }
}

std::optional<std::string> redump_campaign(const std::string& text,
                                           std::string& error) {
  try {
    return cim::exp::manifest_to_string(cim::exp::parse_manifest(text));
  } catch (const std::runtime_error& e) {
    error = e.what();
    return std::nullopt;
  }
}

std::optional<std::string> redump_snapshot(const std::string& text,
                                           std::string& error) {
  cim::obs::Snapshot s;
  if (!cim::obs::parse_snapshot_json(text, s, &error)) return std::nullopt;
  std::ostringstream os;
  cim::obs::write_snapshot_json(os, s);
  return os.str();
}

using Redump = std::optional<std::string> (*)(const std::string&,
                                              std::string&);

TEST(Fixtures, RoundTripByteIdentically) {
  const struct {
    const char* file;
    Redump redump;
  } exact[] = {
      {"rca2_imply.cimprog", redump_program},
      {"rca2_magic.cimprog", redump_program},
      {"rca2_revamp.cimprog", redump_program},
      {"ci_demo.cimcampaign", redump_campaign},
      {"ci_demo_shard.cimcampaign", redump_campaign},
      {"mixed_poisson.cimreqlog", redump_reqlog},
  };
  for (const auto& f : exact) {
    const std::string text = slurp(f.file);
    ASSERT_FALSE(text.empty()) << f.file;
    std::string error;
    const auto once = f.redump(text, error);
    ASSERT_TRUE(once.has_value()) << f.file << ": " << error;
    EXPECT_EQ(*once, text) << f.file;
  }

  // The trace fixture carries comments, which a dump drops: it is pinned
  // as a fixpoint of dump∘parse instead.
  std::string error;
  const auto once = redump_trace(slurp("mixed_poisson.cimtrace"), error);
  ASSERT_TRUE(once.has_value()) << error;
  const auto twice = redump_trace(*once, error);
  ASSERT_TRUE(twice.has_value()) << error;
  EXPECT_EQ(*twice, *once);
}

// --- mutation fuzzer ---------------------------------------------------------

struct Seed {
  std::string name;
  Redump redump;
  std::string text;
  bool json = false;  ///< its objects get a duplicated-key mutation
};

/// A registry snapshot with every metric kind, its build metadata pinned so
/// the seed is the same on every host and run.
std::string snapshot_seed() {
  namespace obs = cim::obs;
  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  reg.counter("fuzz.trials").add(12345);
  reg.gauge("fuzz.eta_s").set(0.1);
  const double bounds[] = {1.0, 10.0, 100.0};
  obs::Histogram& h = reg.histogram("fuzz.latency", bounds);
  h.observe(5.0);
  h.observe(50.0);
  obs::SpanStat& span = reg.span_stat("fuzz.span", obs::Component::kAdc);
  span.count.add(3);
  span.wall_ns.add(1.5);
  span.sim_time_ns.add(2.25);
  span.energy_pj.add(1e-3);
  reg.component(obs::Component::kArray).events.add(2);
  obs::Snapshot s = reg.snapshot();
  reg.reset();
  s.meta.git_sha = "0123abc";
  s.meta.build_type = "Release";
  s.meta.threads = 4;
  s.meta.simd_isa = "avx2";
  s.meta.mode = "metrics";
  s.meta.unix_us = 1700000000000000;
  std::ostringstream os;
  obs::write_snapshot_json(os, s);
  return os.str();
}

std::vector<Seed> seeds() {
  return {
      {"rca2_imply", redump_program, slurp("rca2_imply.cimprog")},
      {"rca2_magic", redump_program, slurp("rca2_magic.cimprog")},
      {"rca2_revamp", redump_program, slurp("rca2_revamp.cimprog")},
      {"mixed_poisson.cimtrace", redump_trace, slurp("mixed_poisson.cimtrace")},
      {"mixed_poisson.cimreqlog", redump_reqlog,
       slurp("mixed_poisson.cimreqlog"), true},
      {"ci_demo", redump_campaign, slurp("ci_demo.cimcampaign")},
      {"ci_demo_shard", redump_campaign, slurp("ci_demo_shard.cimcampaign")},
      {"snapshot", redump_snapshot, snapshot_seed(), true},
  };
}

std::size_t line_count(const std::string& s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n')) + 1;
}

/// The line a parse error names ("<format> parse error: line N: ..."), or
/// 0 when it names none.
std::size_t error_line(const std::string& error) {
  const std::string key = "parse error: line ";
  const auto p = error.find(key);
  if (p == std::string::npos) return 0;
  const auto colon = error.find(':', p + key.size());
  return cim::obs::record::u64(std::string_view(error).substr(
                                   p + key.size(), colon - p - key.size()))
      .value_or(0);
}

/// The oracle: a rejection names a line in [1, lines + 1]; an accepted
/// input's dump parses back to the same dump.
void check(const Seed& seed, const char* mutation, const std::string& x,
           bool must_reject = false) {
  std::string error;
  const auto once = seed.redump(x, error);
  if (!once) {
    const std::size_t line = error_line(error);
    EXPECT_TRUE(line >= 1 && line <= line_count(x) + 1)
        << seed.name << ", " << mutation << ": " << error;
    return;
  }
  EXPECT_FALSE(must_reject) << seed.name << ", " << mutation << ":\n" << x;
  const auto twice = seed.redump(*once, error);
  ASSERT_TRUE(twice.has_value())
      << seed.name << ", " << mutation << ": the dump does not parse: "
      << error << "\ninput:\n"
      << x;
  EXPECT_EQ(*twice, *once) << seed.name << ", " << mutation << "\ninput:\n"
                           << x;
}

/// [begin, length) of every number-looking token: a run of digits, signs,
/// dots and exponents that holds a digit and is not inside a word.
std::vector<std::pair<std::size_t, std::size_t>> numeric_tokens(
    const std::string& s) {
  const auto word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  const auto numeric = [](char c) {
    return std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
           c == '+' || c == '.' || c == 'e' || c == 'E';
  };
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < s.size();) {
    if (!numeric(s[i]) || s[i] == 'e' || s[i] == 'E' ||
        (i > 0 && word(s[i - 1]))) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < s.size() && numeric(s[j])) ++j;
    const bool digit = std::any_of(s.begin() + i, s.begin() + j, [](char c) {
      return std::isdigit(static_cast<unsigned char>(c)) != 0;
    });
    if (digit && (j == s.size() || !word(s[j]))) out.emplace_back(i, j - i);
    i = j;
  }
  return out;
}

void fuzz(const Seed& seed, cim::util::Rng& rng) {
  const std::string& s = seed.text;
  ASSERT_FALSE(s.empty()) << seed.name;

  // Truncation at every byte offset of a small input; at Rng-drawn offsets
  // and every line boundary +-1 of a large one.
  if (s.size() <= 4096) {
    for (std::size_t n = 0; n <= s.size(); ++n)
      check(seed, "truncation", s.substr(0, n));
  } else {
    for (int k = 0; k < 2000; ++k)
      check(seed, "truncation", s.substr(0, rng.uniform_int(s.size() + 1)));
    for (std::size_t p = s.find('\n'); p != std::string::npos;
         p = s.find('\n', p + 1))
      for (const std::size_t n : {p, p + 1, p + 2})
        check(seed, "truncation", s.substr(0, std::min(n, s.size())));
  }
  if (::testing::Test::HasFailure()) return;

  for (int k = 0; k < 2000; ++k) {
    std::string m = s;
    m[rng.uniform_int(m.size())] ^= static_cast<char>(1u << rng.uniform_int(8));
    check(seed, "bit flip", m);
  }
  if (::testing::Test::HasFailure()) return;

  // Hostile numbers in place of every numeric token. Past the first line of
  // an input over 4 KiB, a replacement is checked on the first line plus the
  // token's own line: the one large seed is JSON lines, each decoded alone.
  const std::size_t header_end = s.find('\n') + 1;
  for (const auto& [begin, len] : numeric_tokens(s)) {
    const bool window = s.size() > 4096 && begin >= header_end;
    const std::size_t lo = window ? s.rfind('\n', begin) + 1 : 0;
    const std::size_t hi =
        window ? std::min(s.find('\n', begin), s.size() - 1) + 1 : s.size();
    const std::string before =
        (window ? s.substr(0, header_end) : "") + s.substr(lo, begin - lo);
    const std::string after = s.substr(begin + len, hi - begin - len);
    for (const char* v : {"-1", "0", "+5", "0x10", "1.5", "9007199254740993",
                          "18446744073709551615", "18446744073709551616",
                          "1e300", "1e999", "nan", "inf", "-0"})
      check(seed, "number", before + v + after);
  }
  if (::testing::Test::HasFailure()) return;

  for (std::size_t b = 0; b < s.size();) {
    const std::size_t e = std::min(s.find('\n', b), s.size() - 1) + 1;
    check(seed, "deleted line", s.substr(0, b) + s.substr(e));
    check(seed, "duplicated line", s.substr(0, e) + s.substr(b));
    b = e;
  }
  if (::testing::Test::HasFailure()) return;

  // Every object of a JSON seed, its first key given twice.
  if (seed.json)
    for (std::size_t p = s.find("{\""); p != std::string::npos;
         p = s.find("{\"", p + 1)) {
      const std::size_t key_end = s.find('"', p + 2);
      check(seed, "duplicate key",
            s.substr(0, p + 1) + s.substr(p + 1, key_end - p) + ":0," +
                s.substr(p + 1),
            /*must_reject=*/true);
    }

  // CRLF line ends and trailing whitespace parse to the original's dump.
  std::string error;
  const auto base = seed.redump(s, error);
  ASSERT_TRUE(base.has_value()) << seed.name << ": " << error;
  for (const char* eol : {"\r\n", "\t\n", " \t\r\n"}) {
    std::string m;
    for (const char c : s) {
      if (c == '\n')
        m += eol;
      else
        m += c;
    }
    const auto got = seed.redump(m, error);
    ASSERT_TRUE(got.has_value()) << seed.name << ": " << error;
    EXPECT_EQ(*got, *base) << seed.name;
  }
}

TEST(RecordFuzz, EveryParserRejectsWithALineOrRoundTrips) {
  cim::util::Rng rng(20261017);
  for (const Seed& seed : seeds()) {
    fuzz(seed, rng);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
