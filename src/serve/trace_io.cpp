#include "serve/trace_io.hpp"

#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string_view>

#include "obs/record.hpp"

namespace cim::serve {

constexpr std::string_view kMagic = "cim-trace-v1";

void dump_trace(std::ostream& os, std::span<const Request> requests) {
  os << kMagic << '\n';
  for (const Request& r : requests) {
    os << "req " << r.id << ' ' << obs::record::g17(r.arrival_ns) << ' '
       << kind_name(r.kind) << ' ' << r.input_bits << ' '
       << crossbar::tier_name(r.tier) << ' ' << r.input.size();
    for (const std::uint32_t v : r.input) os << ' ' << v;
    os << '\n';
  }
}

std::optional<std::vector<Request>> parse_trace(std::istream& is,
                                                std::string* error) {
  obs::record::Reader r(is, kMagic);
  std::vector<Request> out;
  try {
    r.header(kMagic);
    r.end();
    double prev_arrival = 0.0;
    while (r.next()) {
      r.expect("req");
      Request req;
      req.id = r.u64("id");
      req.arrival_ns = r.f64("arrival_ns");
      if (!std::isfinite(req.arrival_ns)) r.fail("arrival_ns is not finite");
      // Beyond 2^53 ns (about 104 simulated days) a time is no longer exact
      // to the nanosecond, and the window indices and Chrome-trace
      // timestamps cast from it could overflow uint64_t.
      if (req.arrival_ns > 0x1p53) r.fail("arrival_ns exceeds 2^53 ns");
      if (req.arrival_ns < prev_arrival)
        r.fail("arrival_ns decreased (trace must be sorted)");
      prev_arrival = req.arrival_ns;

      const std::string_view kind = r.token("kind");
      const auto k = kind_from_name(kind);
      if (!k) r.fail("unknown request kind '" + std::string(kind) + "'");
      req.kind = *k;
      req.input_bits = static_cast<int>(r.u64("input_bits", 16));
      if (req.input_bits < 1) r.fail("input_bits must be in [1,16]");
      const std::string_view tier = r.token("tier");
      const auto t = crossbar::tier_from_name(tier);
      if (!t) r.fail("unknown fidelity tier '" + std::string(tier) + "'");
      req.tier = *t;

      // The declared count is checked against the tokens present before
      // it sizes anything.
      const std::uint64_t n = r.u64("input count");
      const std::size_t have = r.tokens_left();
      if (have < n)
        r.fail("req declares " + std::to_string(n) + " inputs but has " +
               std::to_string(have));
      req.input.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t v = r.u64("input " + std::to_string(i));
        if ((v >> req.input_bits) != 0)
          r.fail("input " + std::to_string(i) + " = " + std::to_string(v) +
                 " does not fit in input_bits = " +
                 std::to_string(req.input_bits));
        req.input[i] = static_cast<std::uint32_t>(v);
      }
      r.end();
      out.push_back(std::move(req));
    }
  } catch (const obs::record::ParseError& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
  return out;
}

}  // namespace cim::serve
