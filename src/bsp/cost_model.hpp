// Cost accounting in the BSP / BSP* / EM-BSP* models (§2.2, §3).
//
// Each executor fills one SuperstepCost per compound superstep; RunCosts
// aggregates them and evaluates the model formulas:
//   T_comp = sum_i max(L, max_j t_j)
//   T_comm (BSP*) = sum_i max(L, g * max_j (ceil-packets sent+received))
//   T_IO   = G * (parallel I/O operations)
#pragma once

#include <cstdint>
#include <vector>

#include "bsp/params.hpp"

namespace embsp::bsp {

struct SuperstepCost {
  /// Max over processors of charged computation operations.
  std::uint64_t max_work = 0;
  /// Sum over processors of charged computation operations.
  std::uint64_t total_work = 0;
  /// Max over processors of bytes sent (resp. received) this superstep.
  std::uint64_t max_bytes_sent = 0;
  std::uint64_t max_bytes_received = 0;
  /// Max over processors of BSP* packets (ceil(msg/b) summed per processor).
  std::uint64_t max_packets_sent = 0;
  std::uint64_t max_packets_received = 0;
  /// Max over processors of *wire* bytes (payload + kWireOverheadPerMessage
  /// per message) — the budget the EM simulators meter against gamma.
  std::uint64_t max_wire_sent = 0;
  std::uint64_t max_wire_received = 0;
  /// Total bytes moved between processors this superstep.
  std::uint64_t total_bytes = 0;
  /// Number of messages generated.
  std::uint64_t num_messages = 0;
};

struct RunCosts {
  std::vector<SuperstepCost> supersteps;

  /// lambda — the superstep count the paper's bounds are written in.
  [[nodiscard]] std::size_t num_supersteps() const { return supersteps.size(); }

  /// Largest per-processor communication volume in any single superstep
  /// (the gamma of §5; gamma = O(mu)).
  [[nodiscard]] std::uint64_t max_comm_bytes() const;

  /// Same, in wire bytes (payload + per-message overhead).
  [[nodiscard]] std::uint64_t max_comm_wire() const;

  /// Max over supersteps of the wire bytes all processors sent together.
  [[nodiscard]] std::uint64_t max_exchange_wire() const;

  /// T_comp under the BSP cost model (work measured in charged operations).
  [[nodiscard]] double computation_time(const BspParams& p) const;

  /// T_comm under the BSP* cost model.
  [[nodiscard]] double communication_time(const BspParams& p) const;

  /// Total h-relation bytes routed (for CGM-style H_{n,p} accounting).
  [[nodiscard]] std::uint64_t total_bytes() const;

  RunCosts& operator+=(const RunCosts& other);
};

/// BSP* packet count for a message of `bytes` bytes: ceil(bytes / b), with
/// empty messages still costing one packet (the model charges messages
/// shorter than b as if they had length b).
std::uint64_t packets_for(std::uint64_t bytes, std::size_t b);

/// Fixed per-message overhead charged when metering communication against
/// the declared gamma: covers the block-format chunk headers the EM
/// transport adds (see sim/routing.hpp).
inline constexpr std::uint64_t kWireOverheadPerMessage = 32;

/// Wire size of one message under that accounting.
inline std::uint64_t wire_bytes(std::uint64_t payload) {
  return payload + kWireOverheadPerMessage;
}

/// Wire bytes all processors sent together in one superstep.
inline std::uint64_t exchange_wire(const SuperstepCost& s) {
  return s.total_bytes + s.num_messages * kWireOverheadPerMessage;
}

/// Wire size of `records` records of `record_bytes` bytes each, sent as
/// `messages` Outbox::send_vector messages (each carries a u64 length
/// prefix): the building block of the programs' declared gammas.
inline std::uint64_t vector_wire_bytes(std::uint64_t records,
                                       std::uint64_t record_bytes,
                                       std::uint64_t messages) {
  return records * record_bytes +
         messages * wire_bytes(sizeof(std::uint64_t));
}

}  // namespace embsp::bsp
