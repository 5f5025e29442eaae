#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>

#include "bsp/direct_runtime.hpp"
#include "cgm/graph_components.hpp"
#include "cgm/graph_list_ranking.hpp"
#include "cgm/runner.hpp"
#include "cgm/sort.hpp"
#include "em/backend.hpp"
#include "sim/seq_simulator.hpp"
#include "sim_digest.hpp"
#include "test_programs.hpp"
#include "util/workloads.hpp"

namespace embsp::sim {
namespace {

using embsp::testing::BigMessageProgram;
using embsp::testing::EmptyMessageProgram;
using embsp::testing::IrregularProgram;
using embsp::testing::PrefixSumProgram;
using embsp::testing::RingProgram;

SimConfig small_config(std::uint32_t v, std::size_t D, std::size_t B,
                       std::size_t mu, std::size_t gamma,
                       RoutingMode mode = RoutingMode::compact) {
  SimConfig cfg;
  cfg.machine.p = 1;
  cfg.machine.bsp.v = v;
  cfg.machine.em.D = D;
  cfg.machine.em.B = B;
  cfg.machine.em.M = std::max<std::size_t>(D * B, 8 * (mu + B));
  cfg.mu = mu;
  cfg.gamma = gamma;
  cfg.routing = mode;
  return cfg;
}

/// Runs `prog` on both the direct runtime and the sequential simulator and
/// asserts identical results (per-processor serialized final states).
template <bsp::Program P>
void expect_equivalent(const P& prog, SimConfig cfg,
                       const std::function<typename P::State(std::uint32_t)>&
                           make_state) {
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

  SeqSimulator sim(cfg);
  auto result = sim.run<P>(prog, make_state, [&](std::uint32_t pid, State& s) {
    util::Writer w;
    s.serialize(w);
    sim_states[pid] = w.take();
  });

  for (std::uint32_t i = 0; i < v; ++i) {
    EXPECT_EQ(direct_states[i], sim_states[i]) << "processor " << i;
  }
  EXPECT_EQ(result.lambda(), direct.lambda());
  // The BSP-level communication accounting must agree between executors.
  ASSERT_EQ(result.costs.supersteps.size(), direct.costs.supersteps.size());
  for (std::size_t s = 0; s < result.costs.supersteps.size(); ++s) {
    EXPECT_EQ(result.costs.supersteps[s].max_bytes_sent,
              direct.costs.supersteps[s].max_bytes_sent)
        << "superstep " << s;
    EXPECT_EQ(result.costs.supersteps[s].total_bytes,
              direct.costs.supersteps[s].total_bytes)
        << "superstep " << s;
  }
}

TEST(SeqSimulator, PrefixSumMatchesDirect) {
  PrefixSumProgram prog;
  expect_equivalent(prog, small_config(16, 4, 128, 64, 600),
                    [](std::uint32_t pid) {
                      PrefixSumProgram::State s;
                      s.value = pid * 3 + 1;
                      return s;
                    });
}

TEST(SeqSimulator, RingMatchesDirect) {
  RingProgram prog;
  prog.rounds = 5;
  prog.payload_words = 16;
  expect_equivalent(prog, small_config(8, 2, 128, 2048, 4096),
                    [](std::uint32_t pid) {
                      RingProgram::State s;
                      s.data = {pid, pid * 2};
                      return s;
                    });
}

TEST(SeqSimulator, IrregularMatchesDirect) {
  IrregularProgram prog;
  expect_equivalent(prog, small_config(12, 4, 128, 64, 4096),
                    [](std::uint32_t) { return IrregularProgram::State{}; });
}

TEST(SeqSimulator, EmptyMessagesMatchDirect) {
  EmptyMessageProgram prog;
  expect_equivalent(prog, small_config(6, 2, 64, 32, 256),
                    [](std::uint32_t) { return EmptyMessageProgram::State{}; });
}

TEST(SeqSimulator, BigMessageMatchesDirect) {
  BigMessageProgram prog;
  prog.words = 2000;  // 16 KB message across many 128-byte blocks
  expect_equivalent(prog, small_config(4, 4, 128, 64, 17000),
                    [](std::uint32_t) { return BigMessageProgram::State{}; });
}

TEST(SeqSimulator, PaddedModeProducesSameResults) {
  PrefixSumProgram prog;
  expect_equivalent(prog,
                    small_config(16, 4, 128, 64, 600, RoutingMode::padded),
                    [](std::uint32_t pid) {
                      PrefixSumProgram::State s;
                      s.value = pid + 7;
                      return s;
                    });
}

TEST(SeqSimulator, DeterministicModeProducesSameResults) {
  IrregularProgram prog;
  expect_equivalent(prog,
                    small_config(12, 4, 128, 64, 4096,
                                 RoutingMode::deterministic),
                    [](std::uint32_t) { return IrregularProgram::State{}; });
}

TEST(SeqSimulator, ParallelEngineProducesSameResults) {
  IrregularProgram prog;
  auto cfg = small_config(12, 4, 128, 64, 4096);
  cfg.io_engine = em::IoEngine::parallel;
  expect_equivalent(prog, cfg,
                    [](std::uint32_t) { return IrregularProgram::State{}; });
}

TEST(SimLayout, GroupContextsMustFitM) {
  // §5.1 gives k = floor(M/mu): one group's contexts get exactly the
  // model's memory M, no slack.  With B = 128 and mu = 124 a context slot
  // is exactly one 128-byte block, so M = 1024 admits k = 8 and nothing
  // more.
  SimConfig cfg;
  cfg.machine.p = 1;
  cfg.machine.bsp.v = 16;
  cfg.machine.em.D = 2;
  cfg.machine.em.B = 128;
  cfg.machine.em.M = 1024;
  cfg.mu = 124;
  cfg.gamma = 256;

  cfg.k = 8;  // 8 * 128 = 1024 == M: exactly at the bound, accepted
  const auto layout = SimLayout::compute(cfg, 16);
  EXPECT_EQ(layout.k, 8u);
  EXPECT_EQ(layout.context_slot_bytes, 128u);

  cfg.k = 9;  // 9 * 128 = 1152 > M: one block over, rejected (typed —
              // callers can distinguish a layout bound from bad arguments)
  EXPECT_THROW(SimLayout::compute(cfg, 16), LayoutError);
}

TEST(SeqSimulator, SingleDiskWorks) {
  PrefixSumProgram prog;
  expect_equivalent(prog, small_config(8, 1, 128, 64, 400),
                    [](std::uint32_t pid) {
                      PrefixSumProgram::State s;
                      s.value = pid;
                      return s;
                    });
}

TEST(SeqSimulator, GroupSizeOneWorks) {
  auto cfg = small_config(8, 2, 128, 64, 400);
  cfg.k = 1;
  PrefixSumProgram prog;
  expect_equivalent(prog, cfg, [](std::uint32_t pid) {
    PrefixSumProgram::State s;
    s.value = pid;
    return s;
  });
}

TEST(SeqSimulator, GroupSizeEqualsVWorks) {
  auto cfg = small_config(8, 2, 128, 64, 400);
  cfg.k = 8;
  cfg.machine.em.M = 1 << 20;
  PrefixSumProgram prog;
  expect_equivalent(prog, cfg, [](std::uint32_t pid) {
    PrefixSumProgram::State s;
    s.value = pid;
    return s;
  });
}

TEST(SeqSimulator, DeterministicAcrossRuns) {
  IrregularProgram prog;
  auto cfg = small_config(10, 3, 128, 64, 4096);
  std::vector<std::uint64_t> sums[2];
  for (int run = 0; run < 2; ++run) {
    SeqSimulator sim(cfg);
    sim.run<IrregularProgram>(
        prog, [](std::uint32_t) { return IrregularProgram::State{}; },
        [&](std::uint32_t, IrregularProgram::State& s) {
          sums[run].push_back(s.checksum);
        });
  }
  EXPECT_EQ(sums[0], sums[1]);
}

TEST(SeqSimulator, DifferentSeedsSameResults) {
  // The randomization affects only placement, never program semantics.
  IrregularProgram prog;
  auto cfg = small_config(10, 3, 128, 64, 4096);
  std::vector<std::uint64_t> sums[2];
  for (int run = 0; run < 2; ++run) {
    cfg.seed = run * 991 + 17;
    SeqSimulator sim(cfg);
    sim.run<IrregularProgram>(
        prog, [](std::uint32_t) { return IrregularProgram::State{}; },
        [&](std::uint32_t, IrregularProgram::State& s) {
          sums[run].push_back(s.checksum);
        });
  }
  EXPECT_EQ(sums[0], sums[1]);
}

TEST(SeqSimulator, GammaViolationDiagnosed) {
  PrefixSumProgram prog;
  auto cfg = small_config(16, 2, 128, 64, 40);  // gamma far too small
  SeqSimulator sim(cfg);
  EXPECT_THROW(sim.run<PrefixSumProgram>(
                   prog,
                   [](std::uint32_t pid) {
                     PrefixSumProgram::State s;
                     s.value = pid;
                     return s;
                   },
                   [](std::uint32_t, PrefixSumProgram::State&) {}),
               std::runtime_error);
}

TEST(SeqSimulator, MuViolationDiagnosed) {
  RingProgram prog;
  prog.rounds = 3;
  prog.payload_words = 1000;
  auto cfg = small_config(4, 2, 128, 64, 1 << 16);  // mu too small
  SeqSimulator sim(cfg);
  EXPECT_THROW(
      sim.run<RingProgram>(
          prog,
          [](std::uint32_t) {
            RingProgram::State s;
            s.data.resize(100);
            return s;
          },
          [](std::uint32_t, RingProgram::State&) {}),
      std::runtime_error);
}

TEST(SeqSimulator, IoIsFullyBlockedAndParallel) {
  PrefixSumProgram prog;
  auto cfg = small_config(64, 4, 128, 64, 4096);
  SeqSimulator sim(cfg);
  auto result = sim.run<PrefixSumProgram>(
      prog,
      [](std::uint32_t pid) {
        PrefixSumProgram::State s;
        s.value = pid;
        return s;
      },
      [](std::uint32_t, PrefixSumProgram::State&) {});
  // Context traffic alone guarantees decent utilization; the randomized
  // message placement should keep overall utilization well above 1/D.
  EXPECT_GT(result.total_io.utilization(4), 0.5);
}

TEST(SeqSimulator, DiskSpaceBounded) {
  // Lemma 1: O(v*mu / DB) blocks per disk.
  RingProgram prog;
  prog.rounds = 6;
  prog.payload_words = 32;
  auto cfg = small_config(32, 4, 128, 2048, 4096);
  SeqSimulator sim(cfg);
  auto result = sim.run<RingProgram>(
      prog,
      [](std::uint32_t pid) {
        RingProgram::State s;
        s.data = {pid};
        return s;
      },
      [](std::uint32_t, RingProgram::State&) {});
  const double v_mu_over_db =
      32.0 * 2048 / (4 * 128);  // v*mu/(D*B) blocks per disk
  EXPECT_LT(static_cast<double>(result.max_tracks_per_disk),
            30.0 * v_mu_over_db);
}

TEST(SeqSimulator, MeasuredRequirementsHelper) {
  RingProgram prog;
  prog.rounds = 3;
  prog.payload_words = 8;
  SimConfig cfg;
  cfg.machine.p = 1;
  cfg.machine.bsp.v = 8;
  cfg.machine.em = {1 << 16, 2, 128, 1.0};
  std::vector<std::size_t> sizes;
  auto result = simulate_measured<RingProgram>(
      prog, cfg,
      [](std::uint32_t pid) {
        RingProgram::State s;
        s.data = {pid};
        return s;
      },
      [&](std::uint32_t, RingProgram::State& s) {
        sizes.push_back(s.data.size());
      });
  EXPECT_EQ(result.lambda(), 4u);
  for (auto n : sizes) EXPECT_EQ(n, 4u);  // 1 initial + 3 hops appended
}


// --- Golden digests of the p = 1 loop ---------------------------------------
//
// run_digest (tests/sim_digest.hpp) of p = 1 runs over a grid of layouts,
// engines, routing modes, fault schedules, a cancel/resume and three cgm
// drivers, recorded from the standalone sequential simulator that predates
// the rank loop's p = 1 path (with its empty per_proc_io read as
// {total_io}, the one entry per real processor it documents).  A mismatch
// means results, SuperstepCosts, IoStats, the phase breakdown, routing
// statistics or the fault history changed.

/// Flat plan: 32 virtual processors in groups of 4 over 4 disks.
SimConfig golden_flat() {
  SimConfig cfg = small_config(32, 4, 128, 124, 4096);
  cfg.machine.em.M = 1 << 16;
  cfg.k = 4;
  return cfg;
}

/// Two-level plan: k = 16 contexts never fit M = 1 KiB at once, so leaf
/// groups of 8 walk the contexts while messages route per super-group.
SimConfig golden_two_level() {
  SimConfig cfg = small_config(32, 2, 128, 124, 4096);
  cfg.machine.em.M = 1024;
  cfg.k = 16;
  return cfg;
}

SimConfig golden_pipelined(SimConfig cfg) {
  cfg.pipeline = true;
  cfg.io_engine = em::IoEngine::parallel;
  cfg.compute_threads = 4;
  return cfg;
}

SimConfig golden_faulty(SimConfig cfg) {
  cfg.faults.seed = 2024;
  cfg.faults.read_error_rate = 0.01;
  cfg.faults.write_error_rate = 0.01;
  cfg.faults.torn_write_rate = 0.005;
  cfg.faults.bit_flip_rate = 0.005;
  cfg.block_checksums = true;
  return cfg;
}

/// Transient faults plus one burst on disk 0 that outlasts the retry
/// budget: the enclosing recovery unit gives up once and re-executes.
SimConfig golden_giveup(SimConfig cfg) {
  cfg = golden_faulty(cfg);
  cfg.faults.bursts.push_back(
      {0u, 60u, static_cast<std::uint64_t>(cfg.retry.max_attempts)});
  cfg.superstep_recovery = true;
  return cfg;
}

/// IrregularProgram that raises `flag` during superstep `cancel_at`; with
/// a null flag it is the plain program.
struct CancelingIrregular {
  IrregularProgram inner;
  std::atomic<bool>* flag = nullptr;
  std::size_t cancel_at = 0;

  using State = IrregularProgram::State;

  bool superstep(std::size_t step, const bsp::ProcEnv& env, State& s,
                 const bsp::Inbox& in, bsp::Outbox& out) const {
    if (flag != nullptr && step == cancel_at) {
      flag->store(true, std::memory_order_relaxed);
    }
    return inner.superstep(step, env, s, in, out);
  }
};

std::uint64_t seq_digest(
    const SimConfig& cfg, SimResult* out = nullptr,
    std::function<std::unique_ptr<em::Backend>(std::size_t)> backend =
        nullptr,
    std::atomic<bool>* flag = nullptr) {
  std::vector<std::vector<std::byte>> states(cfg.machine.bsp.v);
  SeqSimulator sim(cfg, std::move(backend));
  SimResult r = sim.run<CancelingIrregular>(
      CancelingIrregular{{}, flag, 1},
      [](std::uint32_t) { return IrregularProgram::State{}; },
      [&](std::uint32_t pid, IrregularProgram::State& s) {
        util::Writer w;
        s.serialize(w);
        states[pid] = w.take();
      });
  EXPECT_EQ(r.per_proc_io.size(), 1u);
  const auto d = embsp::testing::run_digest(r, states);
  if (out != nullptr) *out = std::move(r);
  return d;
}

std::unique_ptr<em::Backend> memory_drive(std::size_t) {
  return std::make_unique<em::MemoryBackend>();
}

struct GoldenCase {
  const char* name;
  SimConfig cfg;
  std::uint64_t golden;
  bool memory_drives = false;
};

void expect_goldens(const std::vector<GoldenCase>& cases) {
  for (const auto& c : cases) {
    const auto d = seq_digest(
        c.cfg, nullptr,
        c.memory_drives ? std::function<std::unique_ptr<em::Backend>(
                              std::size_t)>(memory_drive)
                        : nullptr);
    EXPECT_EQ(d, c.golden) << c.name << ": 0x" << std::hex << d;
  }
}

SimConfig with_routing(SimConfig cfg, RoutingMode mode) {
  cfg.routing = mode;
  if (mode == RoutingMode::automatic) cfg.machine.em.M = 1 << 20;
  return cfg;
}

SimConfig with_engine(SimConfig cfg, em::IoEngine engine) {
  cfg.io_engine = engine;
  return cfg;
}

TEST(SeqGolden, FlatPlanRoutingModes) {
  const auto f = golden_flat();
  expect_goldens({
      {"compact", f, 0xac412aac280412a8ULL},
      {"padded", with_routing(f, RoutingMode::padded), 0xa9c8dd675569549aULL},
      {"deterministic", with_routing(f, RoutingMode::deterministic),
       0x2ffb782abe3217aaULL},
      {"automatic", with_routing(f, RoutingMode::automatic),
       0x67708695de040daeULL},
  });
}

TEST(SeqGolden, FlatPlanEngines) {
  const auto f = golden_flat();
  expect_goldens({
      {"pipelined", golden_pipelined(f), 0xac412aac280412a8ULL},
      {"pipelined automatic",
       golden_pipelined(with_routing(f, RoutingMode::automatic)),
       0x67708695de040daeULL},
      {"uring over memory", with_engine(f, em::IoEngine::uring),
       0xac412aac280412a8ULL, true},
      {"uring over memory pipelined",
       with_engine(golden_pipelined(f), em::IoEngine::uring),
       0xac412aac280412a8ULL, true},
  });
}

TEST(SeqGolden, TwoLevelPlan) {
  const auto t = golden_two_level();
  ASSERT_TRUE(LayoutPlanner::plan(t, 32).hierarchical());
  ASSERT_TRUE(LayoutPlanner::plan(golden_pipelined(t), 32).hierarchical());
  expect_goldens({
      {"compact", t, 0xf92b2381aa23fce4ULL},
      {"padded", with_routing(t, RoutingMode::padded), 0x02d4181805c6dac6ULL},
      {"deterministic", with_routing(t, RoutingMode::deterministic),
       0x17388be8dc5c0d1dULL},
      {"pipelined", golden_pipelined(t), 0x3b2e7104164d9296ULL},
      {"uring over memory", with_engine(t, em::IoEngine::uring),
       0xf92b2381aa23fce4ULL, true},
      {"transient faults", golden_faulty(t), 0x0c81f65f0d818ec4ULL},
  });
}

TEST(SeqGolden, TransientAndGiveupFaultsWithRecovery) {
  const auto f = golden_flat();
  SimResult serial, piped;
  EXPECT_EQ(seq_digest(golden_giveup(f), &serial), 0xec3a27d0e317bd7aULL);
  EXPECT_EQ(seq_digest(golden_pipelined(golden_giveup(f)), &piped),
            0x48347ca95a58c33fULL);
  for (const auto* r : {&serial, &piped}) {
    EXPECT_EQ(r->recovery.io_giveups, 1u);
    EXPECT_EQ(r->recovery.total_rollbacks(), 1u);
    EXPECT_GT(r->recovery.io_retries, 1u);
  }
}

TEST(SeqGolden, CancelThenResume) {
  for (const bool pipe : {false, true}) {
    auto cfg = golden_faulty(golden_flat());
    cfg.superstep_recovery = true;
    if (pipe) cfg = golden_pipelined(cfg);
    const auto uninterrupted = seq_digest(cfg);
    EXPECT_EQ(uninterrupted,
              pipe ? 0x66d664c3810335bfULL : 0x91e1dd42d8e5cfa5ULL)
        << "pipelined=" << pipe;

    const auto dir = std::filesystem::temp_directory_path() /
                     ("embsp_seq_golden_" + std::to_string(pipe));
    std::filesystem::remove_all(dir);
    auto killed = cfg;
    killed.checkpoint.dir = dir.string();
    std::atomic<bool> cancel{false};
    killed.cancel = &cancel;
    EXPECT_THROW(seq_digest(killed, nullptr, nullptr, &cancel),
                 CanceledError);
    auto resumed = cfg;
    resumed.checkpoint.dir = dir.string();
    resumed.checkpoint.resume = true;
    SimResult r;
    EXPECT_EQ(seq_digest(resumed, &r), uninterrupted) << "pipelined=" << pipe;
    EXPECT_GT(r.recovery.resume_epoch, 0u);
    std::filesystem::remove_all(dir);
  }
}

/// run_digest of a cgm driver run: the output vector is the "state".
std::uint64_t cgm_digest(const cgm::ExecResult& exec,
                         const std::vector<std::uint64_t>& output) {
  EXPECT_TRUE(exec.sim.has_value());
  EXPECT_EQ(exec.sim->per_proc_io.size(), 1u);
  util::Writer w;
  w.write_vector(output);
  return embsp::testing::run_digest(*exec.sim, {w.take()});
}

SimConfig cgm_config() {
  SimConfig cfg;
  cfg.machine.p = 1;
  cfg.machine.em.D = 4;
  cfg.machine.em.B = 256;
  cfg.machine.em.M = 1 << 18;
  return cfg;
}

TEST(SeqGolden, CgmSortListRankingComponents) {
  {
    const auto keys = util::random_keys(3000, 5);
    cgm::SeqEmExec exec(cgm_config());
    const auto out =
        cgm::cgm_sort<std::uint64_t, std::less<>>(exec, keys, 16);
    auto want = keys;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(out.sorted, want);
    const auto d = cgm_digest(out.exec, out.sorted);
    EXPECT_EQ(d, 0xa0edbf426e5ae931ULL) << "sort: 0x" << std::hex << d;
  }
  {
    const auto [succ, head] = util::random_list(2000, 9);
    cgm::SeqEmExec exec(cgm_config());
    const auto out = cgm::cgm_list_ranking(exec, succ, 16);
    const auto d = cgm_digest(out.exec, out.rank1);
    EXPECT_EQ(d, 0xe84bf3be49e8ac9eULL) << "list ranking: 0x" << std::hex << d;
  }
  {
    const auto edges = util::random_graph(1500, 1200, 3);
    cgm::SeqEmExec exec(cgm_config());
    const auto out = cgm::cgm_connected_components(exec, 1500, edges, 16);
    const auto d = cgm_digest(out.exec, out.component);
    EXPECT_EQ(d, 0x1e3e1f2a159b4a5cULL) << "components: 0x" << std::hex << d;
  }
}

}  // namespace
}  // namespace embsp::sim
