#include <gtest/gtest.h>

#include "bsp/direct_runtime.hpp"
#include "sim/par_simulator.hpp"
#include "sim_digest.hpp"
#include "test_programs.hpp"
#include "transport_helpers.hpp"

namespace embsp::sim {
namespace {

using embsp::testing::BigMessageProgram;
using embsp::testing::EmptyMessageProgram;
using embsp::testing::IrregularProgram;
using embsp::testing::PrefixSumProgram;
using embsp::testing::RingProgram;

SimConfig par_config(std::uint32_t p, std::uint32_t v, std::size_t D,
                     std::size_t B, std::size_t mu, std::size_t gamma) {
  SimConfig cfg;
  cfg.machine.p = p;
  cfg.machine.bsp.v = v;
  cfg.machine.em.D = D;
  cfg.machine.em.B = B;
  cfg.machine.em.M = std::max<std::size_t>(D * B, 8 * (mu + B));
  cfg.mu = mu;
  cfg.gamma = gamma;
  return cfg;
}

/// Runs `prog` as p DistSimulator ranks over a socket mesh and returns the
/// digest of rank 0's view (empty `states` when `collect_states` is off).
template <bsp::Program P>
std::uint64_t socket_digest(
    const P& prog, const SimConfig& cfg,
    const std::function<typename P::State(std::uint32_t)>& make_state,
    bool collect_states) {
  using State = typename P::State;
  const std::uint32_t p = cfg.machine.p;
  auto eps = make_socket_group(
      p, ::testing::UnitTest::GetInstance()->current_test_info()->name());
  std::vector<std::vector<std::byte>> states(collect_states ? cfg.machine.bsp.v
                                                            : 0);
  SimResult result;
  run_ranks(eps, [&](std::uint32_t me, net::Transport& tp) {
    DistSimulator sim(cfg, tp);
    std::function<void(std::uint32_t, State&)> collect;
    if (me == 0 && collect_states) {
      collect = [&](std::uint32_t pid, State& s) {
        util::Writer w;
        s.serialize(w);
        states[pid] = w.take();
      };
    }
    auto r = sim.run<P>(prog, make_state, collect);
    if (me == 0) result = std::move(r);
  });
  return embsp::testing::run_digest(result, states);
}

/// Direct-runtime equivalence plus the golden digest recorded from the
/// threaded mailbox simulator the rank loop replaced: ParSimulator (loopback
/// ranks) and a socket mesh must both reproduce it.
template <bsp::Program P>
void expect_equivalent(const P& prog, SimConfig cfg,
                       const std::function<typename P::State(std::uint32_t)>&
                           make_state,
                       std::uint64_t golden) {
  using State = typename P::State;
  const std::uint32_t v = cfg.machine.bsp.v;
  std::vector<std::vector<std::byte>> direct_states(v), sim_states(v);

  bsp::DirectRuntime rt;
  auto direct = rt.run<P>(prog, v, make_state,
                          [&](std::uint32_t pid, State& s) {
                            util::Writer w;
                            s.serialize(w);
                            direct_states[pid] = w.take();
                          });

  ParSimulator sim(cfg);
  auto result = sim.run<P>(prog, make_state, [&](std::uint32_t pid, State& s) {
    util::Writer w;
    s.serialize(w);
    sim_states[pid] = w.take();
  });

  for (std::uint32_t i = 0; i < v; ++i) {
    EXPECT_EQ(direct_states[i], sim_states[i]) << "processor " << i;
  }
  EXPECT_EQ(result.lambda(), direct.lambda());
  EXPECT_EQ(embsp::testing::run_digest(result, sim_states), golden);
  EXPECT_EQ(socket_digest(prog, cfg, make_state, true), golden);
}

TEST(ParSimulator, PrefixSumTwoProcs) {
  PrefixSumProgram prog;
  expect_equivalent(prog, par_config(2, 16, 2, 128, 64, 600),
                    [](std::uint32_t pid) {
                      PrefixSumProgram::State s;
                      s.value = pid + 1;
                      return s;
                    },
                    0xa144bb2e16a6b5adULL);
}

TEST(ParSimulator, PrefixSumFourProcs) {
  PrefixSumProgram prog;
  expect_equivalent(prog, par_config(4, 32, 2, 128, 64, 1400),
                    [](std::uint32_t pid) {
                      PrefixSumProgram::State s;
                      s.value = pid * 5 + 2;
                      return s;
                    },
                    0xfd0f32ae6e9ed37bULL);
}

TEST(ParSimulator, RingAcrossProcessors) {
  RingProgram prog;
  prog.rounds = 6;
  expect_equivalent(prog, par_config(4, 8, 2, 128, 2048, 4096),
                    [](std::uint32_t pid) {
                      RingProgram::State s;
                      s.data = {pid};
                      return s;
                    },
                    0x0fa104661a0e0f0dULL);
}

TEST(ParSimulator, IrregularTraffic) {
  IrregularProgram prog;
  expect_equivalent(prog, par_config(3, 12, 2, 128, 64, 4096),
                    [](std::uint32_t) { return IrregularProgram::State{}; },
                    0xca60504631b06892ULL);
}

TEST(ParSimulator, EmptyMessages) {
  EmptyMessageProgram prog;
  expect_equivalent(prog, par_config(2, 6, 2, 64, 32, 256),
                    [](std::uint32_t) { return EmptyMessageProgram::State{}; },
                    0x98c2e602b5b243b5ULL);
}

TEST(ParSimulator, BigMessageCrossesProcessors) {
  BigMessageProgram prog;
  prog.words = 1500;
  expect_equivalent(prog, par_config(2, 4, 2, 128, 64, 14000),
                    [](std::uint32_t) { return BigMessageProgram::State{}; },
                    0x4d67a9f81cb5e138ULL);
}

TEST(ParSimulator, SingleProcessorDegenerate) {
  // p = 1 through the parallel code path must agree with the direct
  // runtime.  One rank runs Algorithm 1, so the golden here is the one the
  // standalone sequential simulator recorded for this config.
  PrefixSumProgram prog;
  expect_equivalent(prog, par_config(1, 8, 2, 128, 64, 400),
                    [](std::uint32_t pid) {
                      PrefixSumProgram::State s;
                      s.value = pid;
                      return s;
                    },
                    0x95c86d5975dd5464ULL);
}

TEST(ParSimulator, DeterministicAcrossRuns) {
  IrregularProgram prog;
  auto cfg = par_config(3, 12, 2, 128, 64, 4096);
  std::vector<std::uint64_t> sums[2];
  for (int run = 0; run < 2; ++run) {
    ParSimulator sim(cfg);
    sim.run<IrregularProgram>(
        prog, [](std::uint32_t) { return IrregularProgram::State{}; },
        [&](std::uint32_t, IrregularProgram::State& s) {
          sums[run].push_back(s.checksum);
        });
  }
  EXPECT_EQ(sums[0], sums[1]);
}

TEST(ParSimulator, ErrorInProgramPropagates) {
  struct ThrowingProgram {
    struct State {
      void serialize(util::Writer&) const {}
      void deserialize(util::Reader&) {}
    };
    bool superstep(std::size_t, const bsp::ProcEnv& env, State&,
                   const bsp::Inbox&, bsp::Outbox&) const {
      if (env.pid == 3) throw std::runtime_error("boom");
      return false;
    }
  };
  ThrowingProgram prog;
  ParSimulator sim(par_config(2, 8, 2, 128, 64, 256));
  EXPECT_THROW(sim.run<ThrowingProgram>(
                   prog, [](std::uint32_t) { return ThrowingProgram::State{}; },
                   [](std::uint32_t, ThrowingProgram::State&) {}),
               std::runtime_error);
}

TEST(ParSimulator, PerProcessorIoBalanced) {
  // The randomized scatter should spread message I/O roughly evenly across
  // the real processors.
  IrregularProgram prog;
  prog.rounds = 4;
  auto cfg = par_config(4, 32, 2, 128, 64, 8192);
  ParSimulator sim(cfg);
  auto result = sim.run<IrregularProgram>(
      prog, [](std::uint32_t) { return IrregularProgram::State{}; },
      [](std::uint32_t, IrregularProgram::State&) {});
  EXPECT_EQ(embsp::testing::run_digest(result, {}), 0xec9c9019d18f8101ULL);
  ASSERT_EQ(result.per_proc_io.size(), 4u);
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (const auto& io : result.per_proc_io) {
    lo = std::min(lo, io.parallel_ios);
    hi = std::max(hi, io.parallel_ios);
  }
  EXPECT_LT(static_cast<double>(hi), 3.0 * static_cast<double>(lo) + 64.0);
}

TEST(ParSimulator, RealCommunicationMetered) {
  PrefixSumProgram prog;
  auto cfg = par_config(4, 16, 2, 128, 64, 600);
  ParSimulator sim(cfg);
  auto result = sim.run<PrefixSumProgram>(
      prog,
      [](std::uint32_t pid) {
        PrefixSumProgram::State s;
        s.value = pid;
        return s;
      },
      [](std::uint32_t, PrefixSumProgram::State&) {});
  EXPECT_EQ(embsp::testing::run_digest(result, {}), 0x70d92b10e30cf982ULL);
  // The all-to-all pattern must move real bytes between real processors.
  EXPECT_GT(result.real_comm_bytes, 0u);
}


/// Every processor sends to its right neighbour in the one superstep it
/// runs, then stops: nobody is left to receive.
struct SendsInFinalSuperstep {
  struct State {
    void serialize(util::Writer&) const {}
    void deserialize(util::Reader&) {}
  };
  bool superstep(std::size_t, const bsp::ProcEnv& env, State&,
                 const bsp::Inbox&, bsp::Outbox& out) const {
    out.send_value<std::uint64_t>((env.pid + 1) % env.nprocs, env.pid);
    return false;
  }
};

void expect_undelivered_error(const std::function<void()>& run,
                              const std::string& tag) {
  try {
    run();
    ADD_FAILURE() << tag << ": messages of the final superstep were dropped";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "messages sent in the final superstep were never received"),
              std::string::npos)
        << tag << ": " << e.what();
  }
}

TEST(FinalSuperstep, UndeliveredMessagesThrowAtEveryP) {
  SendsInFinalSuperstep prog;
  const auto make = [](std::uint32_t) {
    return SendsInFinalSuperstep::State{};
  };
  const auto sink = [](std::uint32_t, SendsInFinalSuperstep::State&) {};
  expect_undelivered_error(
      [&] {
        ParSimulator sim(par_config(1, 8, 2, 128, 64, 400));
        sim.run<SendsInFinalSuperstep>(prog, make, sink);
      },
      "p = 1");
  expect_undelivered_error(
      [&] {
        ParSimulator sim(par_config(2, 8, 2, 128, 64, 400));
        sim.run<SendsInFinalSuperstep>(prog, make, sink);
      },
      "ParSimulator p = 2");
  // Over a loopback mesh every rank throws the same error on its own.
  const auto cfg = par_config(2, 8, 2, 128, 64, 400);
  auto eps = net::make_loopback_group(2);
  std::vector<std::string> errors(2);
  run_ranks(eps, [&](std::uint32_t me, net::Transport& tp) {
    try {
      DistSimulator sim(cfg, tp);
      sim.run<SendsInFinalSuperstep>(prog, make, sink);
    } catch (const std::exception& e) {
      errors[me] = e.what();
    }
  });
  for (std::uint32_t r = 0; r < 2; ++r) {
    EXPECT_NE(errors[r].find(
                  "messages sent in the final superstep were never received"),
              std::string::npos)
        << "loopback rank " << r << ": " << errors[r];
  }
}

}  // namespace
}  // namespace embsp::sim
