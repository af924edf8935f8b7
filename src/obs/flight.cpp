#include "obs/flight.hpp"

#include <ostream>

#include "obs/obs.hpp"
#include "obs/record.hpp"

namespace cim::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.resize(capacity_);
}

void FlightRecorder::record(std::string line) {
  if (size_ == capacity_) ++dropped_;
  ring_[head_] = std::move(line);
  head_ = (head_ + 1) % capacity_;
  if (size_ < capacity_) ++size_;
}

std::vector<std::string> FlightRecorder::recent() const {
  std::vector<std::string> out;
  out.reserve(size_);
  const std::size_t start = (head_ + capacity_ - size_) % capacity_;
  for (std::size_t i = 0; i < size_; ++i)
    out.push_back(ring_[(start + i) % capacity_]);
  return out;
}

bool FlightRecorder::dump(
    const std::string& path, const std::string& reason,
    const std::vector<std::pair<std::string, std::string>>& meta) {
  const bool ok = write_file_atomic(path, [&](std::ostream& os) {
    os << "{\"format\":\"cim-flight-v1\",\"reason\":"
       << record::json_string(reason) << ",\"records\":" << size_
       << ",\"dropped\":" << dropped_;
    for (const auto& [k, v] : meta)
      os << "," << record::json_string(k) << ":" << record::json_string(v);
    os << "}\n";
    const std::size_t start = (head_ + capacity_ - size_) % capacity_;
    for (std::size_t i = 0; i < size_; ++i)
      os << ring_[(start + i) % capacity_] << "\n";
  });
  if (ok) ++dumps_;
  return ok;
}

void FlightRecorder::clear() {
  for (auto& s : ring_) s.clear();
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
}

}  // namespace cim::obs
