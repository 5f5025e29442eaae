#include "bsp/cost_model.hpp"

#include <algorithm>

namespace embsp::bsp {

std::uint64_t packets_for(std::uint64_t bytes, std::size_t b) {
  if (bytes == 0) return 1;
  return (bytes + b - 1) / b;
}

std::uint64_t RunCosts::max_comm_bytes() const {
  std::uint64_t m = 0;
  for (const auto& s : supersteps) {
    m = std::max({m, s.max_bytes_sent, s.max_bytes_received});
  }
  return m;
}

std::uint64_t RunCosts::max_comm_wire() const {
  std::uint64_t m = 0;
  for (const auto& s : supersteps) {
    m = std::max({m, s.max_wire_sent, s.max_wire_received});
  }
  return m;
}

std::uint64_t RunCosts::max_exchange_wire() const {
  std::uint64_t m = 0;
  for (const auto& s : supersteps) m = std::max(m, exchange_wire(s));
  return m;
}

double RunCosts::computation_time(const BspParams& p) const {
  double t = 0;
  for (const auto& s : supersteps) {
    t += std::max(p.L, static_cast<double>(s.max_work));
  }
  return t;
}

double RunCosts::communication_time(const BspParams& p) const {
  double t = 0;
  for (const auto& s : supersteps) {
    const double packets = static_cast<double>(s.max_packets_sent +
                                               s.max_packets_received);
    t += std::max(p.L, p.g * packets);
  }
  return t;
}

std::uint64_t RunCosts::total_bytes() const {
  std::uint64_t t = 0;
  for (const auto& s : supersteps) t += s.total_bytes;
  return t;
}

RunCosts& RunCosts::operator+=(const RunCosts& other) {
  supersteps.insert(supersteps.end(), other.supersteps.begin(),
                    other.supersteps.end());
  return *this;
}

}  // namespace embsp::bsp
