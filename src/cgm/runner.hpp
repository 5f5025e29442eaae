// Uniform executor adapters.
//
// CGM algorithm drivers (cgm_sort, cgm_list_ranking, ...) are templated on
// an executor so the same program runs on:
//   * DirectExec — the in-memory reference runtime,
//   * ParEmExec  — the p-processor EM-BSP* simulator (Algorithm 3),
//   * SeqEmExec  — ParEmExec at p = 1 (Algorithm 1),
//   * DistEmExec — one rank of a distributed EM-BSP* run.
// Each adapter exposes run(prog, v, make_state, collect) -> ExecResult.
// The EM adapters fill in mu/gamma the caller left unset through
// autoconfigure(): a program that declares its requirements
// (bsp::DeclaresRequirements — sort, list ranking, connected components)
// is configured from the declaration and never dry-runs; any other program
// is run once on the in-memory direct runtime to measure them.
#pragma once

#include <optional>

#include "bsp/direct_runtime.hpp"
#include "sim/dist_simulator.hpp"
#include "sim/par_simulator.hpp"
#include "sim/requirements.hpp"
#include "sim/seq_simulator.hpp"

namespace embsp::cgm {

struct ExecResult {
  std::size_t lambda = 0;
  bsp::RunCosts costs;
  std::optional<sim::SimResult> sim;  ///< set by the EM executors
};

class DirectExec {
 public:
  explicit DirectExec(std::size_t b = 1) { opt_.b = b; }

  template <bsp::Program P>
  ExecResult run(
      const P& prog, std::uint32_t v,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect) {
    bsp::DirectRuntime rt;
    auto r = rt.run(prog, v, make_state, collect, opt_);
    return ExecResult{r.lambda(), std::move(r.costs), std::nullopt};
  }

 private:
  bsp::DirectRuntime::Options opt_;
};

/// Fills in whichever of mu/gamma is unset: from the program's declared
/// requirements when it has them (make_state is not called; a declared
/// exchange is taken too), otherwise by dry-running it on the direct
/// runtime, plus sim::with_measured_margin.
template <bsp::Program P>
sim::SimConfig autoconfigure(
    sim::SimConfig cfg, const P& prog, std::uint32_t v,
    const std::function<typename P::State(std::uint32_t)>& make_state) {
  cfg.machine.bsp.v = v;
  if (cfg.mu == 0 || cfg.gamma == 0) {
    bsp::Requirements req;
    if constexpr (bsp::DeclaresRequirements<P>) {
      req = prog.requirements(v);
      if (cfg.exchange == 0) cfg.exchange = req.exchange;
    } else {
      req = sim::with_measured_margin(
          bsp::measure_requirements(prog, v, make_state));
    }
    if (cfg.mu == 0) cfg.mu = req.mu;
    if (cfg.gamma == 0) cfg.gamma = req.gamma;
  }
  return cfg;
}

class ParEmExec {
 public:
  explicit ParEmExec(sim::SimConfig cfg) : cfg_(cfg) {}

  template <bsp::Program P>
  ExecResult run(
      const P& prog, std::uint32_t v,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect) {
    auto cfg = autoconfigure(cfg_, prog, v, make_state);
    // Multi-run workloads (e.g. euler_tour) call run() several times; the
    // checkpoint manifest records which invocation a checkpoint belongs to,
    // so a resumed process re-executes completed runs deterministically and
    // resumes only the interrupted one.
    cfg.checkpoint.run_index = runs_started_++;
    sim::ParSimulator s(cfg);
    auto r = s.run(prog, make_state, collect);
    ExecResult out{r.lambda(), r.costs, std::nullopt};
    out.sim = std::move(r);
    return out;
  }

 private:
  sim::SimConfig cfg_;
  std::size_t runs_started_ = 0;
};

/// ParEmExec with p fixed to 1: Algorithm 1, the one-rank case.
class SeqEmExec : public ParEmExec {
 public:
  explicit SeqEmExec(sim::SimConfig cfg) : ParEmExec(one_processor(cfg)) {}

 private:
  static sim::SimConfig one_processor(sim::SimConfig cfg) {
    cfg.machine.p = 1;
    return cfg;
  }
};

/// One rank of a distributed run: every participating process (or loopback
/// thread) drives the SAME workload code with its own DistEmExec over its
/// own transport endpoint; the executors stay in lockstep through the
/// transport's exchanges.  Every rank runs autoconfigure() on its own and
/// derives the same budgets: a declaring program's bounds depend only on
/// (n, m, v), and the dry run of a non-declaring one is deterministic.
class DistEmExec {
 public:
  DistEmExec(sim::SimConfig cfg, net::Transport& transport)
      : cfg_(cfg), tp_(&transport) {
    cfg_.machine.p = tp_->size();
  }

  template <bsp::Program P>
  ExecResult run(
      const P& prog, std::uint32_t v,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect) {
    auto cfg = autoconfigure(cfg_, prog, v, make_state);
    cfg.checkpoint.run_index = runs_started_++;  // see ParEmExec::run
    sim::DistSimulator s(cfg, *tp_);
    auto r = s.run(prog, make_state, collect);
    ExecResult out{r.lambda(), r.costs, std::nullopt};
    out.sim = std::move(r);
    return out;
  }

 private:
  sim::SimConfig cfg_;
  net::Transport* tp_;
  std::size_t runs_started_ = 0;
};

// --- Block distribution helpers --------------------------------------------
// CGM inputs of n items over v processors use block distribution: processor
// i owns items [i*ceil(n/v), min((i+1)*ceil(n/v), n)).

struct BlockDist {
  std::uint64_t n = 0;
  std::uint32_t v = 1;

  [[nodiscard]] std::uint64_t chunk() const { return (n + v - 1) / v; }
  [[nodiscard]] std::uint32_t owner(std::uint64_t i) const {
    return static_cast<std::uint32_t>(i / chunk());
  }
  [[nodiscard]] std::uint64_t first(std::uint32_t pid) const {
    return std::min<std::uint64_t>(static_cast<std::uint64_t>(pid) * chunk(),
                                   n);
  }
  [[nodiscard]] std::uint64_t count(std::uint32_t pid) const {
    return std::min<std::uint64_t>(first(pid) + chunk(), n) - first(pid);
  }
  [[nodiscard]] std::uint64_t local_index(std::uint64_t i) const {
    return i - first(owner(i));
  }
};

}  // namespace embsp::cgm
