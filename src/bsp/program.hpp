// The BSP* program concept shared by all three executors.
//
// A program describes one virtual processor's behaviour:
//
//   struct MyProgram {
//     struct State { ...; void serialize(util::Writer&) const;
//                         void deserialize(util::Reader&); };
//     // Computation + sending superstep.  Return true to request another
//     // superstep (the runtime keeps going while *any* processor returns
//     // true; every processor is invoked every superstep).
//     bool superstep(std::size_t step, const ProcEnv& env, State& state,
//                    const Inbox& in, Outbox& out) const;
//     // Optional: closed-form resource bounds for v virtual processors
//     // (see DeclaresRequirements below).
//     Requirements requirements(std::uint32_t v) const;
//   };
//
// Programs must be *oblivious to the executor*: all inter-processor state
// flows through messages, and State must round-trip through serialization
// (the EM simulators park it on disk between compound supersteps).
#pragma once

#include <cstdint>

#include "bsp/message.hpp"
#include "util/serialization.hpp"

namespace embsp::bsp {

/// Accounting hook for the computation cost T_comp ("basic computation
/// operations").  Programs charge their local work so the c-optimality
/// analysis (§5.4, Observation 2) has a machine-independent T_comp.
class WorkMeter {
 public:
  void charge(std::uint64_t ops) { ops_ += ops; }
  [[nodiscard]] std::uint64_t total() const { return ops_; }
  void reset() { ops_ = 0; }

 private:
  std::uint64_t ops_ = 0;
};

/// Per-virtual-processor environment passed to each superstep.
struct ProcEnv {
  std::uint32_t pid = 0;     ///< virtual processor id in [0, v)
  std::uint32_t nprocs = 1;  ///< v, the number of virtual processors
  WorkMeter* meter = nullptr;

  void charge(std::uint64_t ops) const {
    if (meter != nullptr) meter->charge(ops);
  }
};

/// A program's resource requirements for v virtual processors: the inputs
/// an EM simulation of it is configured with (the paper's mu and gamma).
/// Either measured by a dry run (bsp::measure_requirements) or declared by
/// the program itself.
struct Requirements {
  std::size_t mu = 0;       ///< max serialized context bytes
  std::uint64_t gamma = 0;  ///< max wire bytes one processor sends or
                            ///< receives in one superstep
  std::size_t lambda = 0;   ///< supersteps (0 = not known in advance)
  /// Max wire bytes all v processors together send in one superstep; 0 =
  /// no bound beyond v*gamma.  Worth declaring when gamma is far above
  /// the average share (one processor may receive everything): it caps
  /// what a group of receivers can get, which sizes routing.
  std::uint64_t exchange = 0;
};

template <typename P>
concept Program = requires(const P& prog, std::size_t step, const ProcEnv& env,
                           typename P::State& state, const Inbox& in,
                           Outbox& out) {
  requires util::Serializable<typename P::State>;
  requires std::default_initializable<typename P::State>;
  { prog.superstep(step, env, state, in, out) } -> std::same_as<bool>;
};

/// A program that declares closed-form bounds on its own requirements.
/// `requirements(v)` must hold for every input the program accepts: the EM
/// simulators use the declared mu and gamma as hard budgets and raise
/// sim::RequirementError when a run exceeds them.
template <typename P>
concept DeclaresRequirements =
    Program<P> && requires(const P& prog, std::uint32_t v) {
      { prog.requirements(v) } -> std::same_as<Requirements>;
    };

}  // namespace embsp::bsp
