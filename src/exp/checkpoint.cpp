#include "exp/checkpoint.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/obs.hpp"
#include "obs/record.hpp"

namespace cim::exp {

using obs::record::g17;

constexpr std::string_view kMagic = "cim-campaign-v1";

std::uint64_t campaign_fingerprint(std::string_view name, std::uint64_t seed,
                                   std::size_t cells, std::uint64_t block) {
  std::string key;
  key.reserve(name.size() + 64);
  key.append(name);
  key.push_back('|');
  key.append(std::to_string(seed));
  key.push_back('|');
  key.append(std::to_string(cells));
  key.push_back('|');
  key.append(std::to_string(block));
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

void dump_manifest(std::ostream& os, const CampaignManifest& m) {
  os << kMagic << '\n';
  os << "campaign " << m.name << " seed " << m.seed << " cells " << m.cells
     << " block " << m.block << " fingerprint "
     << obs::record::hex16(m.fingerprint) << '\n';
  os << "state rounds " << m.rounds << " trials " << m.total_trials << '\n';
  for (std::size_t i = 0; i < m.cell_state.size(); ++i) {
    const CellCheckpoint& c = m.cell_state[i];
    os << "cell " << i << " count " << c.stat.n << " mean " << g17(c.stat.mean)
       << " m2 " << g17(c.stat.m2) << " min " << g17(c.stat.min) << " max "
       << g17(c.stat.max) << " cursor " << c.cursor << " frozen "
       << (c.frozen ? 1 : 0) << " capped " << (c.capped ? 1 : 0) << '\n';
  }
  os << "end\n";
}

std::string manifest_to_string(const CampaignManifest& m) {
  std::ostringstream os;
  dump_manifest(os, m);
  return os.str();
}

CampaignManifest parse_manifest(std::string_view text) {
  obs::record::Reader r(text, kMagic);
  r.header(kMagic);
  r.end();
  CampaignManifest m;
  bool saw_campaign = false;
  bool saw_state = false;
  bool saw_end = false;
  while (r.next()) {
    if (saw_end) r.fail("content after 'end'");
    const std::string_view kw = r.token("record");
    if (kw == "campaign") {
      if (saw_campaign) r.fail("duplicate 'campaign' line");
      m.name = std::string(r.token("campaign name"));
      m.seed = r.expect("seed").u64("seed");
      m.cells = r.expect("cells").u64("cell count");
      m.block = r.expect("block").u64("block");
      m.fingerprint = r.expect("fingerprint").hex64("fingerprint");
      r.end();
      if (m.fingerprint !=
          campaign_fingerprint(m.name, m.seed, m.cells, m.block))
        r.fail("fingerprint does not match campaign identity");
      saw_campaign = true;
    } else if (kw == "state") {
      if (!saw_campaign) r.fail("'state' before 'campaign'");
      if (saw_state) r.fail("duplicate 'state' line");
      m.rounds = r.expect("rounds").u64("rounds");
      m.total_trials = r.expect("trials").u64("trials");
      r.end();
      saw_state = true;
    } else if (kw == "cell") {
      if (!saw_state) r.fail("'cell' before 'state'");
      const std::uint64_t idx = r.u64("cell index");
      if (idx != m.cell_state.size())
        r.fail("cell index " + std::to_string(idx) + ", expected " +
               std::to_string(m.cell_state.size()));
      if (idx >= m.cells) r.fail("cell index out of range");
      CellCheckpoint c;
      c.stat.n = r.expect("count").u64("count");
      c.stat.mean = r.expect("mean").f64("mean");
      c.stat.m2 = r.expect("m2").f64("m2");
      c.stat.min = r.expect("min").f64("min");
      c.stat.max = r.expect("max").f64("max");
      c.cursor = r.expect("cursor").u64("cursor");
      c.frozen = r.expect("frozen").u64("frozen flag", 1) == 1;
      c.capped = r.expect("capped").u64("capped flag", 1) == 1;
      r.end();
      if (c.cursor < c.stat.n) r.fail("cursor behind trial count");
      m.cell_state.push_back(c);
    } else if (kw == "end") {
      if (!saw_state) r.fail("'end' before 'state'");
      r.end();
      saw_end = true;
    } else {
      r.fail("unknown record '" + std::string(kw) + "'");
    }
  }
  if (!saw_end) r.fail("missing 'end' trailer");
  if (m.cell_state.size() != m.cells)
    r.fail("have " + std::to_string(m.cell_state.size()) +
           " cell lines, campaign declares " + std::to_string(m.cells));
  return m;
}

bool save_manifest(const std::string& path, const CampaignManifest& m) {
  return obs::write_file_atomic(path,
                                [&](std::ostream& os) { dump_manifest(os, m); });
}

bool load_manifest(const std::string& path, CampaignManifest& out,
                   std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    out = parse_manifest(buf.str());
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  return true;
}

}  // namespace cim::exp
