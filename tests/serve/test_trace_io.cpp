/// cim-trace-v1 round-trips: generated streams survive dump -> parse
/// bit-exactly, dump -> parse -> dump is a fixpoint (also against the
/// checked-in tests/data fixture), and malformed traces fail with
/// line-numbered errors — the cim-prog-v1 contract applied to request
/// traces.
#include "serve/trace_io.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "serve/traffic.hpp"

#ifndef CIM_TEST_DATA_DIR
#define CIM_TEST_DATA_DIR "tests/data"
#endif

namespace cim::serve {
namespace {

TEST(TraceIo, GeneratedStreamRoundTripsBitExactly) {
  TrafficConfig cfg;
  cfg.requests = 64;
  cfg.in_dim = 8;
  cfg.process = ArrivalProcess::kMmpp;
  cfg.tier = crossbar::FidelityTier::kCalibrated;
  cfg.seed = 7;
  const auto reqs = generate(cfg);

  std::ostringstream os;
  dump_trace(os, reqs);
  std::istringstream is(os.str());
  std::string error;
  const auto parsed = parse_trace(is, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ((*parsed)[i].id, reqs[i].id);
    // %.17g makes the double survive the text round-trip bit-exactly.
    EXPECT_EQ((*parsed)[i].arrival_ns, reqs[i].arrival_ns);
    EXPECT_EQ((*parsed)[i].kind, reqs[i].kind);
    EXPECT_EQ((*parsed)[i].input_bits, reqs[i].input_bits);
    EXPECT_EQ((*parsed)[i].tier, reqs[i].tier);
    EXPECT_EQ((*parsed)[i].input, reqs[i].input);
  }

  // dump(parse(dump(x))) == dump(x).
  std::ostringstream os2;
  dump_trace(os2, *parsed);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(TraceIo, FixtureParsesAndIsAFixpoint) {
  const std::string path =
      std::string(CIM_TEST_DATA_DIR) + "/mixed_poisson.cimtrace";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing fixture " << path;
  std::string error;
  const auto parsed = parse_trace(in, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), 8u);

  EXPECT_EQ((*parsed)[0].kind, RequestKind::kVmm);
  EXPECT_EQ((*parsed)[1].kind, RequestKind::kInference);
  EXPECT_EQ((*parsed)[2].tier, crossbar::FidelityTier::kCalibrated);
  EXPECT_EQ((*parsed)[7].tier, crossbar::FidelityTier::kIdeal);
  EXPECT_EQ((*parsed)[3].input.size(), 8u);
  EXPECT_DOUBLE_EQ((*parsed)[0].arrival_ns, 0.0);

  std::ostringstream once;
  dump_trace(once, *parsed);
  std::istringstream again(once.str());
  const auto reparsed = parse_trace(again, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  std::ostringstream twice;
  dump_trace(twice, *reparsed);
  EXPECT_EQ(once.str(), twice.str());
}

TEST(TraceIo, CommentsAndBlanksAreIgnored) {
  std::istringstream is(
      "# leading comment\n"
      "\n"
      "cim-trace-v1\n"
      "# interior comment\n"
      "req 0 0 vmm 4 full 2 1 2\n"
      "\n"
      "req 1 10.5 infer 4 calibrated 2 3 4\n");
  const auto parsed = parse_trace(is);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[1].input, (std::vector<std::uint32_t>{3, 4}));
}

TEST(TraceIo, ToleratesCrlfAndTrailingWhitespace) {
  // A trace that crossed a windows checkout (CRLF) or an editor that pads
  // line ends must still parse — and reparse to the same requests.
  std::istringstream is(
      "cim-trace-v1\r\n"
      "req 0 0 vmm 4 full 2 1 2 \r\n"
      "req 1 10.5 infer 4 calibrated 2 3 4\t\r\n");
  std::string error;
  const auto parsed = parse_trace(is, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].input, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_DOUBLE_EQ((*parsed)[1].arrival_ns, 10.5);

  // The damaged parse re-dumps to the same text a clean parse does:
  // dump(parse(damaged)) == dump(parse(clean)).
  std::istringstream clean(
      "cim-trace-v1\n"
      "req 0 0 vmm 4 full 2 1 2\n"
      "req 1 10.5 infer 4 calibrated 2 3 4\n");
  const auto parsed_clean = parse_trace(clean, &error);
  ASSERT_TRUE(parsed_clean.has_value()) << error;
  std::ostringstream from_damaged;
  std::ostringstream from_clean;
  dump_trace(from_damaged, *parsed);
  dump_trace(from_clean, *parsed_clean);
  EXPECT_EQ(from_damaged.str(), from_clean.str());
}

TEST(TraceIo, ErrorsCarryLineNumbers) {
  const struct {
    const char* text;
    const char* needle;
  } cases[] = {
      {"bogus-header\n", "line 1"},
      {"cim-trace-v1\nreq 0 0 warp 4 full 1 1\n", "line 2"},
      {"cim-trace-v1\nreq 0 0 vmm 4 turbo 1 1\n", "unknown fidelity"},
      {"cim-trace-v1\nreq 0 0 vmm 99 full 1 1\n", "input_bits"},
      {"cim-trace-v1\nreq 0 5 vmm 4 full 1 1\nreq 1 4 vmm 4 full 1 1\n",
       "decreased"},
      {"cim-trace-v1\nreq 0 0 vmm 4 full 3 1 2\n", "declares 3"},
      {"cim-trace-v1\nreq 0 0 vmm 4 full 1 1 9\n", "trailing"},
      {"cim-trace-v1\nreq 0 0 vmm 4 full 2 1 -1\n",
       "line 2: input 1 '-1' is not an unsigned integer"},
      {"cim-trace-v1\nreq 0 0 vmm 4 full 2 15 16\n",
       "line 2: input 1 = 16 does not fit in input_bits = 4"},
      {"", "missing"},
      {"cim-trace-v1\nreq -1 0 vmm 4 full 1 1\n",
       "line 2: id '-1' is not an unsigned integer"},
      {"cim-trace-v1\nreq 0 0 vmm 4 full 4000000000 1\n",
       "line 2: req declares 4000000000 inputs but has 1"},
      {"cim-trace-v1\nreq 0 nan vmm 4 full 1 1\n", "line 2"},
      {"cim-trace-v1\nreq 0 inf vmm 4 full 1 1\n", "line 2"},
      {"cim-trace-v1\nreq 0 1 vmm 4 full 1 1\nreq 1 1e16 vmm 4 full 1 1\n",
       "line 3: arrival_ns exceeds 2^53 ns"},
  };
  for (const auto& c : cases) {
    std::istringstream is(c.text);
    std::string error;
    const auto parsed = parse_trace(is, &error);
    EXPECT_FALSE(parsed.has_value()) << c.text;
    EXPECT_NE(error.find(c.needle), std::string::npos)
        << "error '" << error << "' lacks '" << c.needle << "'";
  }
}

}  // namespace
}  // namespace cim::serve
