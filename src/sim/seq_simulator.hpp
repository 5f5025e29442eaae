// Algorithm 1 — SeqCompoundSuperstep: simulation of a v-processor BSP* on a
// single-processor EM-BSP* machine with D disks (§5.1).
//
// SeqSimulator is the one-rank case of the rank loop in
// sim/dist_simulator.hpp, run through ParSimulator over a loopback group of
// one.  With p = 1 that loop takes Algorithm 1's path: each compound
// superstep runs v/k rounds of k virtual processors (one *group*) —
//   1(a) read the k contexts            — ContextStore, striped, parallel
//   1(b) read the group's messages      — MessageStore arena, parallel
//   1(c) run the k supersteps in memory
//   1(d) cut generated messages into blocks, write them to the D buckets
//        with a random disk permutation per write cycle
//   1(e) write the k contexts back
//   (2)  SimulateRouting — reorganize buckets into standard consecutive
//        format per destination group
// — and `collect` receives the final states group by group as they are
// read back.
//
// The simulator validates the model's resource discipline at runtime:
// contexts must fit the declared mu, each virtual processor's sent and
// received communication must fit the declared gamma (RequirementError
// otherwise), and k*mu must fit the machine's memory M.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>

#include "bsp/direct_runtime.hpp"
#include "sim/par_simulator.hpp"
#include "sim/requirements.hpp"

namespace embsp::sim {

class SeqSimulator : public ParSimulator {
 public:
  explicit SeqSimulator(
      SimConfig cfg,
      std::function<std::unique_ptr<em::Backend>(std::size_t)> backend =
          nullptr)
      : ParSimulator(one_processor(std::move(cfg)), std::move(backend)) {}

  [[nodiscard]] const em::DiskArray& disks() const {
    return ParSimulator::disks(0);
  }

 private:
  static SimConfig one_processor(SimConfig cfg) {
    if (cfg.machine.p != 1) {
      throw std::invalid_argument(
          "SeqSimulator: p must be 1 (use ParSimulator for p > 1)");
    }
    return cfg;
  }
};

/// Convenience: measure mu/gamma with a direct dry run (small v is fine as
/// long as it has the same per-processor footprint), then simulate.
template <bsp::Program P>
SimResult simulate_measured(
    const P& prog, SimConfig cfg,
    const std::function<typename P::State(std::uint32_t)>& make_state,
    const std::function<void(std::uint32_t, typename P::State&)>& collect) {
  const auto req = with_measured_margin(
      bsp::measure_requirements(prog, cfg.machine.bsp.v, make_state));
  cfg.mu = req.mu;
  cfg.gamma = req.gamma;
  SeqSimulator sim(cfg);
  return sim.run(prog, make_state, collect);
}

}  // namespace embsp::sim
