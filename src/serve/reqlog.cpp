#include "serve/reqlog.hpp"

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/record.hpp"

namespace cim::serve {

namespace {

using obs::record::json_num;

constexpr std::string_view kFormat = "cim-reqlog-v1";

void write_completion_line(std::ostream& os, const Completion& c) {
  os << "{\"event\":\"done\",\"id\":" << c.id << ",\"kind\":\""
     << kind_name(c.kind) << "\",\"tier\":\"" << crossbar::tier_name(c.tier)
     << "\",\"escalated\":" << (c.escalated ? "true" : "false")
     << ",\"replica\":" << c.replica << ",\"batch\":" << c.batch_size
     << ",\"label\":" << c.label;
  const std::pair<const char*, double> fields[] = {
      {"arrival_ns", c.arrival_ns},       {"dispatch_ns", c.dispatch_ns},
      {"done_ns", c.done_ns},             {"batch_wait_ns", c.batch_wait_ns},
      {"queue_wait_ns", c.queue_wait_ns}, {"issue_wait_ns", c.issue_wait_ns},
      {"bitserial_ns", c.bitserial_ns},   {"reduce_ns", c.reduce_ns}};
  for (const auto& [k, v] : fields) os << ",\"" << k << "\":" << json_num(v);
  os << "}\n";
}

void write_rejection_line(std::ostream& os, const Rejection& r) {
  os << "{\"event\":\"rejected\",\"id\":" << r.id << ",\"kind\":\""
     << kind_name(r.kind) << "\",\"arrival_ns\":" << json_num(r.arrival_ns)
     << "}\n";
}

void write_lines(std::ostream& os, const std::vector<Completion>& completions,
                 const std::vector<Rejection>& rejections) {
  os << "{\"format\":\"" << kFormat
     << "\",\"completions\":" << completions.size()
     << ",\"rejections\":" << rejections.size() << "}\n";
  for (const Completion& c : completions) write_completion_line(os, c);
  for (const Rejection& r : rejections) write_rejection_line(os, r);
}

// Decode errors are plain exceptions: the record codec names their line.

/// The enum value `v[key]` names, through `from_name`.
template <typename FromName>
auto named(const obs::json::Value& v, const std::string& key,
           FromName from_name) {
  const std::string& s = v.at(key).as_string();
  const auto e = from_name(s);
  if (!e) throw std::runtime_error("unknown " + key + " '" + s + "'");
  return *e;
}

}  // namespace

void write_reqlog(std::ostream& os, const ServeReport& report) {
  write_lines(os, report.completions, report.rejections);
}

void write_reqlog(std::ostream& os, const ReqLog& log) {
  write_lines(os, log.completions, log.rejections);
}

bool write_reqlog_file(const std::string& path, const ServeReport& report) {
  return obs::write_file_atomic(
      path, [&](std::ostream& os) { write_reqlog(os, report); });
}

ReqLog read_reqlog(std::istream& is) {
  ReqLog log;
  obs::record::Reader r(is, kFormat);
  r.json_lines(kFormat, [&](const obs::json::Value& v) {
    const std::string& event = v.at("event").as_string();
    if (event == "done") {
      Completion c;
      c.id = v.at("id").as_u64();
      c.kind = named(v, "kind", kind_from_name);
      c.tier = named(v, "tier", crossbar::tier_from_name);
      c.escalated = v.contains("escalated") && v.at("escalated").as_bool();
      c.replica = v.at("replica").as_u64();
      c.batch_size = v.at("batch").as_u64();
      const std::int64_t label = v.at("label").as_i64();
      c.label = static_cast<int>(label);  // wraps if out of range: checked
      if (c.label != label) throw std::runtime_error("label is out of range");
      c.arrival_ns = v.at("arrival_ns").as_number();
      c.dispatch_ns = v.at("dispatch_ns").as_number();
      c.done_ns = v.at("done_ns").as_number();
      c.batch_wait_ns = v.at("batch_wait_ns").as_number();
      c.queue_wait_ns = v.at("queue_wait_ns").as_number();
      c.issue_wait_ns = v.at("issue_wait_ns").as_number();
      c.bitserial_ns = v.at("bitserial_ns").as_number();
      c.reduce_ns = v.at("reduce_ns").as_number();
      log.completions.push_back(std::move(c));
    } else if (event == "rejected") {
      Rejection rej;
      rej.id = v.at("id").as_u64();
      rej.kind = named(v, "kind", kind_from_name);
      rej.arrival_ns = v.at("arrival_ns").as_number();
      log.rejections.push_back(rej);
    } else {
      throw std::runtime_error("unknown event '" + event + "'");
    }
  });
  return log;
}

ReqLog read_reqlog_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f)
    throw std::runtime_error("cim-reqlog-v1: cannot open '" + path + "'");
  return read_reqlog(f);
}

void export_reqlog_if_requested(const ServeReport& report) {
  if (!obs::enabled()) return;
  if (const char* path = std::getenv("CIM_OBS_REQLOG_FILE");
      path != nullptr && *path != '\0')
    write_reqlog_file(path, report);
}

}  // namespace cim::serve
