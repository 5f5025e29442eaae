// Bench-local executor: satisfies the same run(prog, v, make_state,
// collect) contract as cgm::SeqEmExec / cgm::DistEmExec, built only from
// public interfaces so the benchmark can put spans at the layer
// boundaries without touching src/:
//   bsp.dry_run — cgm::autoconfigure, the µ/γ measurement on the
//                 in-memory DirectRuntime (always on the unwrapped program);
//   sim.run     — constructing, running and destroying the simulator
//                 (SeqSimulator, or DistSimulator when given a transport)
//                 over the caller's drive factory.
// While tracing is on, the program is wrapped in TracedProgram so its
// superstep and context (de)serialization calls are timed as well.
#pragma once

#include <functional>
#include <memory>

#include "cgm/runner.hpp"
#include "decorators.hpp"
#include "trace.hpp"

namespace e2ebench {

using DriveFactory =
    std::function<std::unique_ptr<embsp::em::Backend>(std::size_t)>;

class BenchExec {
 public:
  /// `transport` null = one processor (SeqSimulator); otherwise this
  /// executor is one rank of a DistSimulator run and cfg.machine.p must
  /// equal transport->size().
  BenchExec(embsp::sim::SimConfig cfg, DriveFactory drives,
            embsp::net::Transport* transport = nullptr)
      : cfg_(std::move(cfg)), drives_(std::move(drives)), tp_(transport) {}

  template <embsp::bsp::Program P>
  embsp::cgm::ExecResult run(
      const P& prog, std::uint32_t v,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect) {
    embsp::sim::SimConfig cfg;
    {
      trace::Span span(trace::Kind::bsp_dry_run);
      cfg = embsp::cgm::autoconfigure(cfg_, prog, v, make_state);
    }
    if (!trace::enabled()) return simulate(prog, cfg, make_state, collect);
    using Traced = TracedProgram<P>;
    using TState = typename Traced::State;
    return simulate(
        Traced{&prog}, cfg,
        std::function<TState(std::uint32_t)>(
            [&](std::uint32_t pid) { return TState{make_state(pid)}; }),
        std::function<void(std::uint32_t, TState&)>(
            [&](std::uint32_t pid, TState& s) { collect(pid, s.inner); }));
  }

 private:
  template <embsp::bsp::Program P>
  embsp::cgm::ExecResult simulate(
      const P& prog, const embsp::sim::SimConfig& cfg,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect) {
    trace::Span span(trace::Kind::sim_run);
    embsp::sim::SimResult r =
        tp_ != nullptr
            ? embsp::sim::DistSimulator(cfg, *tp_, drives_)
                  .run(prog, make_state, collect)
            : embsp::sim::SeqSimulator(cfg, drives_)
                  .run(prog, make_state, collect);
    embsp::cgm::ExecResult out{r.lambda(), r.costs, std::nullopt};
    out.sim = std::move(r);
    return out;
  }

  embsp::sim::SimConfig cfg_;
  DriveFactory drives_;
  embsp::net::Transport* tp_;
};

}  // namespace e2ebench
