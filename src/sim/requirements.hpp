// Resource budgets of an EM simulation: where mu and gamma come from, and
// the typed error raised when a run exceeds them.
//
// A program either declares its requirements (bsp::DeclaresRequirements:
// closed-form bounds, used as they are) or has them measured by a dry run
// on the in-memory DirectRuntime, plus the margin with_measured_margin()
// defines (cgm::autoconfigure picks between the two).
//
// The simulators treat the budgets as hard limits: a context larger than
// mu, a virtual processor that sends or receives more than gamma wire bytes
// in one superstep, or (when declared) a superstep whose processors send
// more than exchange wire bytes together, raises RequirementError.  A wrong
// declaration fails loudly and never yields a result.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "bsp/cost_model.hpp"
#include "bsp/program.hpp"

namespace embsp::sim {

/// A run exceeded its declared (or measured) mu or gamma.  Deliberately not
/// an em::IoError: the budgets are a property of the program, so superstep
/// recovery must not retry it.
class RequirementError : public std::runtime_error {
 public:
  enum class Budget : std::uint8_t {
    mu,              ///< serialized context bytes
    gamma_sent,      ///< wire bytes sent by one vproc in one superstep
    gamma_received,  ///< wire bytes received by one vproc in one superstep
    exchange,        ///< wire bytes all vprocs sent in one superstep
  };
  /// Superstep value for contexts written before superstep 0.
  static constexpr std::size_t kInit = SIZE_MAX;
  /// vproc value of an exchange error: the budget covers all of them.
  static constexpr std::uint32_t kAllVprocs = UINT32_MAX;

  RequirementError(Budget budget, std::uint32_t vproc, std::size_t superstep,
                   std::uint64_t measured, std::uint64_t declared);

  [[nodiscard]] Budget budget() const { return budget_; }
  [[nodiscard]] std::uint32_t vproc() const { return vproc_; }
  [[nodiscard]] std::size_t superstep() const { return superstep_; }
  [[nodiscard]] std::uint64_t measured() const { return measured_; }
  [[nodiscard]] std::uint64_t declared() const { return declared_; }

 private:
  Budget budget_;
  std::uint32_t vproc_;
  std::size_t superstep_;
  std::uint64_t measured_;
  std::uint64_t declared_;
};

/// Meters one virtual processor's superstep traffic against gamma (wire
/// bytes: payload + bsp::kWireOverheadPerMessage per message).
inline void check_gamma(std::uint32_t vproc, std::size_t superstep,
                        std::uint64_t sent_wire, std::uint64_t recv_wire,
                        std::uint64_t gamma) {
  if (sent_wire > gamma) {
    throw RequirementError(RequirementError::Budget::gamma_sent, vproc,
                           superstep, sent_wire, gamma);
  }
  if (recv_wire > gamma) {
    throw RequirementError(RequirementError::Budget::gamma_received, vproc,
                           superstep, recv_wire, gamma);
  }
}

/// Meters one superstep's total traffic (reduced over all processors)
/// against a declared exchange; 0 means none was declared.
inline void check_exchange(std::size_t superstep, const bsp::SuperstepCost& c,
                           std::uint64_t exchange) {
  const std::uint64_t sent = bsp::exchange_wire(c);
  if (exchange != 0 && sent > exchange) {
    throw RequirementError(RequirementError::Budget::exchange,
                           RequirementError::kAllVprocs, superstep, sent,
                           exchange);
  }
}

/// Budgets for requirements measured by a dry run: serialized sizes may
/// drift between runs, so mu gets 1/8 + 64 bytes of headroom; the measured
/// gamma is already in wire bytes and gets 64 bytes against rounding.
[[nodiscard]] inline bsp::Requirements with_measured_margin(
    bsp::Requirements req) {
  req.mu += req.mu / 8 + 64;
  req.gamma += 64;
  return req;
}

}  // namespace embsp::sim
