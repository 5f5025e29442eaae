// Algorithm 3 — ParCompoundSuperstep: simulation of a v-processor BSP* on a
// p-processor EM-BSP* machine (§5.2), in one process.
//
// ParSimulator is the in-process face of the rank loop in
// sim/dist_simulator.hpp: it runs p DistSimulator ranks — one per thread,
// each owning a private D-disk array — over the loopback transport, whose
// post() is the only copy a block makes between two real processors.  Rank
// 0 runs on the calling thread and returns its SimResult, which every rank
// assembles identically.  Each rank deserializes its own final states in
// parallel; `collect` then sees all of them on the calling thread, in
// virtual-processor order, once every rank has finished.  At p = 1 the one
// rank runs on the calling thread and `collect` is handed straight to it.
// Checkpoint/resume, coordinated superstep recovery and pipelining are the
// rank loop's.
#pragma once

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "net/transport.hpp"
#include "sim/dist_simulator.hpp"

namespace embsp::sim {

class ParSimulator {
 public:
  explicit ParSimulator(
      SimConfig cfg,
      std::function<std::unique_ptr<em::Backend>(std::size_t)> backend =
          nullptr);

  template <bsp::Program P>
  SimResult run(
      const P& prog,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect);

  [[nodiscard]] const em::DiskArray& disks(std::size_t i) const {
    return ranks_[i]->disks();
  }
  [[nodiscard]] const SimConfig& config() const { return ranks_[0]->config(); }

 private:
  /// Rethrows the failure that caused the others: a rank that merely saw a
  /// peer abort reports net::PeerFailedError.
  static void rethrow_primary(const std::vector<std::exception_ptr>& errors);

  std::vector<std::unique_ptr<net::Transport>> transports_;
  std::vector<std::unique_ptr<DistSimulator>> ranks_;
};

template <bsp::Program P>
SimResult ParSimulator::run(
    const P& prog,
    const std::function<typename P::State(std::uint32_t)>& make_state,
    const std::function<void(std::uint32_t, typename P::State&)>& collect) {
  using State = typename P::State;
  const auto p = static_cast<std::uint32_t>(ranks_.size());
  SimResult result;
  std::vector<std::exception_ptr> errors(p);
  // Each rank fills its own slice; a single rank, running on this thread,
  // streams its states to `collect` directly.
  std::vector<State> final_states(collect && p > 1 ? config().machine.bsp.v
                                                   : 0);
  std::function<void(std::uint32_t, State&)> keep = collect;
  if (collect && p > 1) {
    keep = [&](std::uint32_t vp, State& s) { final_states[vp] = std::move(s); };
  }
  auto rank_main = [&](std::uint32_t r) {
    try {
      auto res = ranks_[r]->run(prog, make_state, keep);
      if (r == 0) result = std::move(res);
    } catch (...) {
      errors[r] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(p - 1);
    for (std::uint32_t r = 1; r < p; ++r) threads.emplace_back(rank_main, r);
    rank_main(0);
  }
  rethrow_primary(errors);
  for (std::uint32_t vp = 0; vp < final_states.size(); ++vp) {
    collect(vp, final_states[vp]);
  }
  return result;
}

}  // namespace embsp::sim
