// Direct (in-memory) BSP* executor.
//
// Runs a Program with all v contexts resident in memory and messages moved
// by pointer swap.  This is the reference semantics: the EM simulators must
// produce bit-identical per-processor results (tests assert this), and
// measure_requirements() runs a program here to learn its mu (max context
// size), gamma (max per-processor communication per superstep), and lambda
// (superstep count) when the program does not declare them.
#pragma once

#include <functional>
#include <stdexcept>
#include <vector>

#include "bsp/cost_model.hpp"
#include "bsp/message.hpp"
#include "bsp/program.hpp"

namespace embsp::bsp {

struct DirectRunResult {
  RunCosts costs;
  /// Max serialized context size observed across processors and supersteps
  /// (only when Options::measure_context); this is the paper's mu.
  std::size_t max_context_bytes = 0;
  /// gamma: max *wire* bytes sent or received by one processor in one
  /// superstep (payload + per-message overhead) — the budget an EM
  /// simulation of this program must be configured with.
  [[nodiscard]] std::uint64_t gamma() const { return costs.max_comm_wire(); }
  [[nodiscard]] std::size_t lambda() const { return costs.num_supersteps(); }
};

class DirectRuntime {
 public:
  struct Options {
    bool measure_context = false;
    std::size_t max_supersteps = 1'000'000;  ///< runaway-program guard
    std::size_t b = 1;  ///< BSP* packet size used for packet accounting
  };

  template <Program P>
  DirectRunResult run(
      const P& prog, std::uint32_t v,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect,
      Options opt = {}) {
    if (v == 0) throw std::invalid_argument("DirectRuntime: v must be > 0");
    using State = typename P::State;

    std::vector<State> states;
    states.reserve(v);
    for (std::uint32_t i = 0; i < v; ++i) states.push_back(make_state(i));

    DirectRunResult result;
    if (opt.measure_context) {
      for (const auto& s : states) {
        result.max_context_bytes =
            std::max(result.max_context_bytes, util::serialized_size(s));
      }
    }

    std::vector<std::vector<Message>> pending(v);  // inboxes for this step
    WorkMeter meter;

    for (std::size_t step = 0;; ++step) {
      if (step >= opt.max_supersteps) {
        throw std::runtime_error(
            "DirectRuntime: superstep limit exceeded (runaway program?)");
      }
      SuperstepCost cost;
      std::vector<std::vector<Message>> next(v);
      bool any_continue = false;

      for (std::uint32_t pid = 0; pid < v; ++pid) {
        Inbox in(std::move(pending[pid]));
        Outbox out(pid, v);
        meter.reset();
        ProcEnv env{pid, v, &meter};

        const bool cont = prog.superstep(step, env, states[pid], in, out);
        any_continue = any_continue || cont;

        // Cost accounting for this processor.
        cost.max_work = std::max(cost.max_work, meter.total());
        cost.total_work += meter.total();
        std::uint64_t sent_packets = 0;
        std::uint64_t sent_wire = 0;
        for (const auto& m : out.messages()) {
          sent_packets += packets_for(m.size_bytes(), opt.b);
          sent_wire += wire_bytes(m.size_bytes());
        }
        cost.max_bytes_sent = std::max<std::uint64_t>(cost.max_bytes_sent,
                                                      out.total_bytes());
        cost.max_packets_sent =
            std::max(cost.max_packets_sent, sent_packets);
        cost.max_wire_sent = std::max(cost.max_wire_sent, sent_wire);
        std::uint64_t recv_bytes = in.total_bytes();
        std::uint64_t recv_packets = 0;
        std::uint64_t recv_wire = 0;
        for (const auto& m : in.all()) {
          recv_packets += packets_for(m.size_bytes(), opt.b);
          recv_wire += wire_bytes(m.size_bytes());
        }
        cost.max_bytes_received =
            std::max(cost.max_bytes_received, recv_bytes);
        cost.max_packets_received =
            std::max(cost.max_packets_received, recv_packets);
        cost.max_wire_received = std::max(cost.max_wire_received, recv_wire);
        cost.total_bytes += out.total_bytes();
        cost.num_messages += out.messages().size();

        for (auto& m : out.take()) {
          next[m.dst].push_back(std::move(m));
        }

        if (opt.measure_context) {
          result.max_context_bytes = std::max(
              result.max_context_bytes, util::serialized_size(states[pid]));
        }
      }

      result.costs.supersteps.push_back(cost);
      pending = std::move(next);
      if (!any_continue) break;
    }

    // Undelivered messages indicate a program bug (sent in the final
    // superstep with nobody left to receive them).
    for (const auto& box : pending) {
      if (!box.empty()) {
        throw std::runtime_error(
            "DirectRuntime: messages sent in the final superstep were never "
            "received");
      }
    }

    for (std::uint32_t pid = 0; pid < v; ++pid) collect(pid, states[pid]);
    return result;
  }
};

/// Program requirements measured by a direct dry run: runs the whole
/// program in memory.  The EM executors use it only for programs that do
/// not declare their requirements (DeclaresRequirements); tests use it as
/// the oracle the declared bounds are checked against.
template <Program P>
Requirements measure_requirements(
    const P& prog, std::uint32_t v,
    const std::function<typename P::State(std::uint32_t)>& make_state) {
  DirectRuntime rt;
  DirectRuntime::Options opt;
  opt.measure_context = true;
  auto result = rt.run(
      prog, v, make_state, [](std::uint32_t, typename P::State&) {}, opt);
  return Requirements{result.max_context_bytes, result.gamma(),
                      result.lambda(), result.costs.max_exchange_wire()};
}

}  // namespace embsp::bsp
