#include "sim/par_simulator.hpp"

namespace embsp::sim {

ParSimulator::ParSimulator(
    SimConfig cfg,
    std::function<std::unique_ptr<em::Backend>(std::size_t)> backend) {
  cfg.machine.validate();
  // In-process ranks cannot vanish silently — a failing rank aborts the
  // group — so the barrier deadline only has to outlast the longest round.
  constexpr std::uint64_t kRoundTimeoutMs = 24ULL * 3600 * 1000;
  transports_ = net::make_loopback_group(cfg.machine.p, kRoundTimeoutMs);
  ranks_.reserve(cfg.machine.p);
  for (auto& tp : transports_) {
    ranks_.push_back(std::make_unique<DistSimulator>(cfg, *tp, backend));
    ranks_.back()->own_states_only_ = true;
  }
}

void ParSimulator::rethrow_primary(
    const std::vector<std::exception_ptr>& errors) {
  std::exception_ptr first;
  for (const auto& e : errors) {
    if (e == nullptr) continue;
    try {
      std::rethrow_exception(e);
    } catch (const net::PeerFailedError&) {
      if (first == nullptr) first = e;
    } catch (...) {
      throw;
    }
  }
  if (first != nullptr) std::rethrow_exception(first);
}

}  // namespace embsp::sim
