#include "sim/requirements.hpp"

#include <string>

namespace embsp::sim {

namespace {

std::string describe(RequirementError::Budget budget, std::uint32_t vproc,
                     std::size_t superstep, std::uint64_t measured,
                     std::uint64_t declared) {
  using Budget = RequirementError::Budget;
  const std::string amount = std::to_string(measured);
  const std::string who =
      budget == Budget::exchange
          ? "all virtual processors together"
          : "virtual processor " + std::to_string(vproc);
  const std::string what =
      budget == Budget::mu ? "has a context of " + amount + " bytes"
      : budget == Budget::gamma_received
          ? "received " + amount + " wire bytes"
          : "sent " + amount + " wire bytes";
  const std::string when = superstep == RequirementError::kInit
                               ? "at initialization"
                               : "in superstep " + std::to_string(superstep);
  const char* name = budget == Budget::mu         ? "mu"
                     : budget == Budget::exchange ? "exchange"
                                                  : "gamma";
  return "requirement exceeded: " + who + " " + what + " " + when +
         ", above the declared " + name + " = " + std::to_string(declared);
}

}  // namespace

RequirementError::RequirementError(Budget budget, std::uint32_t vproc,
                                   std::size_t superstep,
                                   std::uint64_t measured,
                                   std::uint64_t declared)
    : std::runtime_error(
          describe(budget, vproc, superstep, measured, declared)),
      budget_(budget),
      vproc_(vproc),
      superstep_(superstep),
      measured_(measured),
      declared_(declared) {}

}  // namespace embsp::sim
