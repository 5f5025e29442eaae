// Checkpoint/restart and coordinated-recovery tests.
//
// The durability claims under test (see DESIGN.md §"Failure model &
// recovery"):
//   * a checkpoint torn by a crash is detected (checksums) and the
//     previous epoch loads instead — the manifest + atomic-rename protocol
//     never leaves the directory unloadable;
//   * a run killed at an arbitrary point (including SIGKILL-style death
//     with no destructors, simulated by fork + scripted crash faults) and
//     resumed produces byte-identical results, model costs, and fault
//     tallies to an uninterrupted run;
//   * the p > 1 rank loop's coordinated rollback re-executes a failed
//     superstep across ALL ranks and still completes with the fault-free
//     answer — under ParSimulator and over the loopback and socket
//     transports alike, against golden digests recorded from the threaded
//     mailbox simulator the rank loop replaced.
//
// Carries the `recovery` ctest label; the sanitizer presets re-run it.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "em/fault_backend.hpp"
#include "sim/checkpoint.hpp"
#include "sim/dist_simulator.hpp"
#include "sim/par_simulator.hpp"
#include "sim/seq_simulator.hpp"
#include "sim_digest.hpp"
#include "test_programs.hpp"
#include "transport_helpers.hpp"
#include "util/checksum.hpp"

namespace embsp::sim {
namespace {

namespace fs = std::filesystem;
using embsp::testing::BigMessageProgram;
using embsp::testing::IrregularProgram;

// IrregularProgram plus a cancellation trigger: during superstep
// `cancel_at` the cancel flag is raised, so the simulator stops at the
// following boundary.  With a null flag it is bit-identical to the plain
// program — the same type runs the baseline and the interrupted run.
struct CancelingProgram {
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

std::string fresh_dir(const std::string& tag) {
  const auto dir = fs::temp_directory_path() / ("embsp_ckpt_" + tag);
  fs::remove_all(dir);
  return dir.string();
}

SimConfig base_config(std::uint32_t p, std::uint32_t v, em::IoEngine engine) {
  SimConfig cfg;
  cfg.machine.p = p;
  cfg.machine.bsp.v = v;
  cfg.machine.em.D = 4;
  cfg.machine.em.B = 128;
  cfg.machine.em.M = 1 << 20;
  cfg.mu = 64;
  cfg.gamma = 4096;
  cfg.io_engine = engine;
  return cfg;
}

template <typename Sim>
std::vector<std::uint64_t> run_sim(const SimConfig& cfg, SimResult& result,
                                   std::atomic<bool>* flag = nullptr,
                                   std::size_t cancel_at = 0) {
  Sim simr(cfg);
  // Indexed assignment: collect may re-run after recovery; idempotent.
  std::vector<std::uint64_t> sums(cfg.machine.bsp.v);
  result = simr.template run<CancelingProgram>(
      CancelingProgram{{}, flag, cancel_at},
      [](std::uint32_t) { return CancelingProgram::State{}; },
      [&](std::uint32_t vp, CancelingProgram::State& s) {
        sums[vp] = s.checksum;
      });
  return sums;
}

/// The p > 1 engines under test: ParSimulator (loopback ranks on threads)
/// and DistSimulator ranks driven directly over each transport.
enum class Engine { par, loopback, socket };

std::string engine_name(Engine e) {
  switch (e) {
    case Engine::par:
      return "par";
    case Engine::loopback:
      return "loopback";
    default:
      return "socket";
  }
}

/// run_sim for any p > 1 engine; rank 0 collects and its result is returned.
std::vector<std::uint64_t> run_engine(Engine engine, const SimConfig& cfg,
                                      SimResult& result,
                                      std::atomic<bool>* flag = nullptr,
                                      std::size_t cancel_at = 0) {
  if (engine == Engine::par) {
    return run_sim<ParSimulator>(cfg, result, flag, cancel_at);
  }
  const std::uint32_t p = cfg.machine.p;
  auto eps = engine == Engine::loopback
                 ? net::make_loopback_group(p)
                 : make_socket_group(
                       p, ::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name());
  std::vector<std::uint64_t> sums(cfg.machine.bsp.v);
  run_ranks(eps, [&](std::uint32_t me, net::Transport& tp) {
    DistSimulator sim(cfg, tp);
    std::function<void(std::uint32_t, CancelingProgram::State&)> collect;
    if (me == 0) {
      collect = [&](std::uint32_t vp, CancelingProgram::State& s) {
        sums[vp] = s.checksum;
      };
    }
    auto r = sim.run<CancelingProgram>(
        CancelingProgram{{}, flag, cancel_at},
        [](std::uint32_t) { return CancelingProgram::State{}; }, collect);
    if (me == 0) result = std::move(r);
  });
  return sums;
}

/// run_digest over the per-vproc checksums these tests collect.
std::uint64_t digest_of(const SimResult& r,
                        const std::vector<std::uint64_t>& sums) {
  std::vector<std::vector<std::byte>> states;
  for (const auto sum : sums) {
    util::Writer w;
    w.write<std::uint64_t>(sum);
    states.push_back(w.take());
  }
  return embsp::testing::run_digest(r, states);
}

// Golden digests of the p = 2, v = 16 runs below, recorded from the
// threaded mailbox simulator: plain layout, journaled (recovery) layout,
// and the hostile run that rolls back once mid-run.
constexpr std::uint64_t kGoldenPlain = 0x90cdcb9f4b989c12ULL;
constexpr std::uint64_t kGoldenJournaled = 0xee4ea5653cdc5350ULL;
constexpr std::uint64_t kGoldenRollback = 0x5cd3e8ed6a44a3c1ULL;

void expect_same_costs(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.lambda(), b.lambda());
  ASSERT_EQ(a.costs.supersteps.size(), b.costs.supersteps.size());
  for (std::size_t i = 0; i < a.costs.supersteps.size(); ++i) {
    EXPECT_EQ(a.costs.supersteps[i].max_work, b.costs.supersteps[i].max_work)
        << "superstep " << i;
    EXPECT_EQ(a.costs.supersteps[i].total_work,
              b.costs.supersteps[i].total_work)
        << "superstep " << i;
    EXPECT_EQ(a.costs.supersteps[i].max_wire_sent,
              b.costs.supersteps[i].max_wire_sent)
        << "superstep " << i;
  }
  EXPECT_EQ(a.total_io.parallel_ios, b.total_io.parallel_ios);
  EXPECT_EQ(a.total_io.blocks_read, b.total_io.blocks_read);
  EXPECT_EQ(a.total_io.blocks_written, b.total_io.blocks_written);
  EXPECT_EQ(a.total_io.bytes_read, b.total_io.bytes_read);
  EXPECT_EQ(a.total_io.bytes_written, b.total_io.bytes_written);
}

// --- CheckpointDir: format, torn files, fallback ----------------------------

std::vector<std::byte> make_payload(std::size_t n, std::uint8_t salt) {
  std::vector<std::byte> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::byte>(static_cast<std::uint8_t>(i * 31 + salt));
  }
  return p;
}

void corrupt_file(const std::string& path, std::size_t at) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(f.tellg());
  ASSERT_GT(size, at);
  f.seekp(static_cast<std::streamoff>(at));
  char byte = 0;
  f.seekg(static_cast<std::streamoff>(at));
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(at));
  f.write(&byte, 1);
}

TEST(CheckpointDir, PublishLoadRoundtrip) {
  CheckpointDir dir(fresh_dir("roundtrip"));
  const auto p1 = make_payload(1000, 1);
  dir.publish(0, 1, p1, 0xABCD);

  const auto m = dir.manifest();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->run_index, 0u);
  EXPECT_EQ(m->cur_epoch, 1u);
  EXPECT_EQ(m->cur_bytes, p1.size());
  EXPECT_EQ(m->cur_checksum, util::checksum64(p1));
  EXPECT_EQ(m->prev_epoch, 0u);
  EXPECT_EQ(m->config_fp, 0xABCDu);

  const auto loaded = dir.load(0, 0xABCD);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 1u);
  EXPECT_EQ(loaded->payload, p1);

  // A second epoch becomes current; the first is retained as fallback.
  const auto p2 = make_payload(1200, 2);
  dir.publish(0, 2, p2, 0xABCD);
  const auto m2 = dir.manifest();
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(m2->cur_epoch, 2u);
  EXPECT_EQ(m2->prev_epoch, 1u);
  EXPECT_TRUE(fs::exists(dir.epoch_path(0, 1)));

  // A third epoch retires epoch 1 (2-epoch retention).
  dir.publish(0, 3, make_payload(900, 3), 0xABCD);
  EXPECT_FALSE(fs::exists(dir.epoch_path(0, 1)));
  EXPECT_TRUE(fs::exists(dir.epoch_path(0, 2)));
  EXPECT_TRUE(fs::exists(dir.epoch_path(0, 3)));
}

TEST(CheckpointDir, TornManifestReadsAsAbsent) {
  const auto path = fresh_dir("torn_manifest");
  CheckpointDir dir(path);
  dir.publish(0, 1, make_payload(500, 1), 7);
  corrupt_file(path + "/MANIFEST", 40);
  // A manifest that fails its checksum is indistinguishable from no
  // checkpoint at all: the run starts fresh rather than loading garbage.
  EXPECT_FALSE(dir.manifest().has_value());
  EXPECT_FALSE(dir.load(0, 7).has_value());
}

TEST(CheckpointDir, CorruptCurrentEpochFallsBackToPrevious) {
  const auto path = fresh_dir("fallback");
  CheckpointDir dir(path);
  const auto p1 = make_payload(800, 1);
  dir.publish(0, 1, p1, 7);
  dir.publish(0, 2, make_payload(800, 2), 7);
  corrupt_file(dir.epoch_path(0, 2), 100);
  const auto loaded = dir.load(0, 7);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 1u);
  EXPECT_EQ(loaded->payload, p1);
}

TEST(CheckpointDir, CorruptEverythingThrows) {
  const auto path = fresh_dir("all_corrupt");
  CheckpointDir dir(path);
  dir.publish(0, 1, make_payload(600, 1), 7);
  dir.publish(0, 2, make_payload(600, 2), 7);
  corrupt_file(dir.epoch_path(0, 1), 50);
  corrupt_file(dir.epoch_path(0, 2), 50);
  EXPECT_THROW(dir.load(0, 7), std::runtime_error);
}

TEST(CheckpointDir, ConfigFingerprintMismatchThrows) {
  CheckpointDir dir(fresh_dir("fp_mismatch"));
  dir.publish(0, 1, make_payload(100, 1), 7);
  EXPECT_THROW(dir.load(0, 8), std::runtime_error);
}

TEST(CheckpointDir, OtherRunIndexLoadsNothing) {
  CheckpointDir dir(fresh_dir("run_index"));
  dir.publish(1, 4, make_payload(100, 1), 7);
  // Run 0 finished before the checkpointed run 1 started; it re-executes
  // deterministically instead of loading run 1's state.
  EXPECT_FALSE(dir.load(0, 7).has_value());
  EXPECT_TRUE(dir.load(1, 7).has_value());
}

TEST(CheckpointFingerprint, SensitiveToConfigButNotCrashPoints) {
  auto cfg = base_config(1, 16, em::IoEngine::serial);
  const auto fp = config_fingerprint(cfg);
  auto other = cfg;
  other.seed += 1;
  EXPECT_NE(fp, config_fingerprint(other));
  other = cfg;
  other.faults.bursts.push_back({0u, 10u, 4u});
  EXPECT_NE(fp, config_fingerprint(other));
  // A scripted crash point is where the process *dies*, not part of the
  // surviving history — the restart runs without it and must still match.
  other = cfg;
  other.faults.scripted.push_back({em::FaultKind::crash, 0u, 123u});
  EXPECT_EQ(fp, config_fingerprint(other));
}

// --- Sequential simulator: cancel / resume equivalence ----------------------

TEST(SeqResume, CheckpointingItselfChangesNothing) {
  // Checkpoint I/O is off-model (raw backend peeks, no stats, no fault
  // draws): a run with checkpointing enabled is byte-identical to one
  // without.
  auto plain = base_config(1, 16, em::IoEngine::serial);
  SimResult plain_res;
  const auto plain_sums = run_sim<SeqSimulator>(plain, plain_res);

  auto ckpt = plain;
  ckpt.checkpoint.dir = fresh_dir("seq_noop");
  SimResult ckpt_res;
  const auto ckpt_sums = run_sim<SeqSimulator>(ckpt, ckpt_res);

  EXPECT_EQ(plain_sums, ckpt_sums);
  expect_same_costs(plain_res, ckpt_res);
  EXPECT_GT(ckpt_res.recovery.checkpoints, 0u);
  EXPECT_EQ(plain_res.recovery.checkpoints, 0u);
}

void seq_cancel_resume_case(em::IoEngine engine, bool pipeline,
                            std::size_t cancel_at, const std::string& tag) {
  auto cfg = base_config(1, 16, engine);
  if (pipeline) {
    cfg.pipeline = true;
    cfg.compute_threads = 2;
  }
  cfg.checkpoint.dir = fresh_dir(tag + "_base");
  SimResult base_res;
  const auto expected = run_sim<SeqSimulator>(cfg, base_res);

  auto killed = cfg;
  killed.checkpoint.dir = fresh_dir(tag);
  std::atomic<bool> cancel{false};
  killed.cancel = &cancel;
  SimResult dead_res;
  EXPECT_THROW(run_sim<SeqSimulator>(killed, dead_res, &cancel, cancel_at),
               CanceledError);

  auto resumed = cfg;
  resumed.checkpoint.dir = killed.checkpoint.dir;
  resumed.checkpoint.resume = true;
  SimResult res;
  const auto got = run_sim<SeqSimulator>(resumed, res);
  EXPECT_EQ(got, expected) << tag;
  expect_same_costs(base_res, res);
  EXPECT_EQ(res.recovery.resume_epoch, cancel_at + 1);
}

TEST(SeqResume, CancelAtFirstBoundaryThenResume) {
  seq_cancel_resume_case(em::IoEngine::serial, false, 0, "seq_first");
}

TEST(SeqResume, CancelMidRunThenResume) {
  seq_cancel_resume_case(em::IoEngine::serial, false, 2, "seq_mid");
}

TEST(SeqResume, ResumeUnderUringPipeline) {
  seq_cancel_resume_case(em::IoEngine::uring, true, 1, "seq_uring_pipe");
}

TEST(SeqResume, CheckpointEveryNSkipsBoundaries) {
  auto cfg = base_config(1, 16, em::IoEngine::serial);
  cfg.checkpoint.dir = fresh_dir("seq_every");
  cfg.checkpoint.every = 2;
  SimResult res;
  run_sim<SeqSimulator>(cfg, res);
  SimResult dense_res;
  auto dense = cfg;
  dense.checkpoint.dir = fresh_dir("seq_every_dense");
  dense.checkpoint.every = 1;
  run_sim<SeqSimulator>(dense, dense_res);
  EXPECT_GT(res.recovery.checkpoints, 0u);
  EXPECT_LT(res.recovery.checkpoints, dense_res.recovery.checkpoints);
}

TEST(SeqResume, FaultHistoryContinuesAcrossResume) {
  // The fault schedule is part of the run's identity: a resumed run's
  // injected-fault tally, retry count, and results must all match an
  // uninterrupted run under the same schedule (ScheduleState round-trip).
  auto cfg = base_config(1, 16, em::IoEngine::serial);
  cfg.faults.seed = 2024;
  cfg.faults.read_error_rate = 0.02;
  cfg.faults.write_error_rate = 0.02;
  cfg.faults.torn_write_rate = 0.01;
  cfg.faults.bit_flip_rate = 0.01;
  cfg.block_checksums = true;
  cfg.superstep_recovery = true;
  cfg.checkpoint.dir = fresh_dir("seq_faulty_base");

  SimResult base_res;
  const auto expected = run_sim<SeqSimulator>(cfg, base_res);
  ASSERT_GT(base_res.recovery.faults.total(), 0u);

  auto killed = cfg;
  killed.checkpoint.dir = fresh_dir("seq_faulty");
  std::atomic<bool> cancel{false};
  killed.cancel = &cancel;
  SimResult dead_res;
  EXPECT_THROW(run_sim<SeqSimulator>(killed, dead_res, &cancel, 1),
               CanceledError);

  auto resumed = killed;
  resumed.cancel = nullptr;
  resumed.checkpoint.resume = true;
  SimResult res;
  const auto got = run_sim<SeqSimulator>(resumed, res);
  EXPECT_EQ(got, expected);
  expect_same_costs(base_res, res);
  EXPECT_EQ(res.recovery.faults.total(), base_res.recovery.faults.total());
  EXPECT_EQ(res.recovery.faults.read_errors,
            base_res.recovery.faults.read_errors);
  EXPECT_EQ(res.recovery.faults.torn_writes,
            base_res.recovery.faults.torn_writes);
  EXPECT_EQ(res.recovery.io_retries, base_res.recovery.io_retries);
}

TEST(SeqResume, MultiRunWorkloadResumesInterruptedRunOnly) {
  // Workloads like euler_tour run several simulations through one
  // executor; the manifest's run_index makes a resumed process re-execute
  // completed runs fresh and resume only the interrupted one.
  auto cfg0 = base_config(1, 16, em::IoEngine::serial);
  cfg0.checkpoint.run_index = 0;
  auto cfg1 = cfg0;
  cfg1.seed = cfg0.seed + 99;
  cfg1.checkpoint.run_index = 1;

  SimResult base0, base1;
  const auto expected0 = run_sim<SeqSimulator>(cfg0, base0);
  const auto expected1 = run_sim<SeqSimulator>(cfg1, base1);

  // Interrupted process: run 0 completes (checkpointing), run 1 canceled.
  const auto dir = fresh_dir("seq_multirun");
  auto k0 = cfg0;
  k0.checkpoint.dir = dir;
  SimResult r0;
  EXPECT_EQ(run_sim<SeqSimulator>(k0, r0), expected0);
  auto k1 = cfg1;
  k1.checkpoint.dir = dir;
  std::atomic<bool> cancel{false};
  k1.cancel = &cancel;
  SimResult rdead;
  EXPECT_THROW(run_sim<SeqSimulator>(k1, rdead, &cancel, 1), CanceledError);

  // Restarted process replays run 0 (manifest belongs to run 1, so run 0
  // starts fresh with checkpoint writes suppressed) then resumes run 1.
  auto re0 = k0;
  re0.checkpoint.resume = true;
  SimResult rr0;
  EXPECT_EQ(run_sim<SeqSimulator>(re0, rr0), expected0);
  EXPECT_EQ(rr0.recovery.resume_epoch, 0u);
  EXPECT_EQ(rr0.recovery.checkpoints, 0u);  // suppressed: run 1 owns the dir

  auto re1 = k1;
  re1.cancel = nullptr;
  re1.checkpoint.resume = true;
  SimResult rr1;
  EXPECT_EQ(run_sim<SeqSimulator>(re1, rr1), expected1);
  EXPECT_GT(rr1.recovery.resume_epoch, 0u);
  expect_same_costs(base1, rr1);
}

// --- SIGKILL-style death: fork + scripted crash fault -----------------------

TEST(CrashRestart, KillNineMidRunThenResumeMatches) {
  auto cfg = base_config(1, 16, em::IoEngine::serial);
  SimResult base_res;
  const auto expected = run_sim<SeqSimulator>(cfg, base_res);
  const std::uint64_t disk0_calls =
      (base_res.total_io.blocks_read + base_res.total_io.blocks_written) / 4;
  ASSERT_GT(disk0_calls, 8u);

  const auto dir = fresh_dir("crash_kill9");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: same run, checkpointing on, process dies without warning at
    // backend call #N of disk 0 — std::_Exit, no destructors, no flushes.
    auto doomed = cfg;
    doomed.checkpoint.dir = dir;
    doomed.faults.scripted.push_back(
        {em::FaultKind::crash, 0u, disk0_calls / 2});
    SimResult r;
    try {
      run_sim<SeqSimulator>(doomed, r);
    } catch (...) {
    }
    std::_Exit(0);  // reached only if the crash point never fired
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 137) << "child should die at the crash point";

  // Parent: resume from the orphaned checkpoint directory.  The in-memory
  // disks died with the child — everything must come from stable storage.
  auto resumed = cfg;
  resumed.checkpoint.dir = dir;
  resumed.checkpoint.resume = true;
  SimResult res;
  const auto got = run_sim<SeqSimulator>(resumed, res);
  EXPECT_EQ(got, expected);
  expect_same_costs(base_res, res);
  EXPECT_GT(res.recovery.resume_epoch, 0u);
}

TEST(CrashRestart, KillNineMidTransportRunThenResumeMatches) {
  // The same oracle for the rank loop: two loopback ranks checkpoint
  // through rank 0 until a crash point on rank 0's disk 0 kills the whole
  // process; the parent resumes both ranks from the orphaned directory.
  auto cfg = base_config(2, 16, em::IoEngine::serial);
  SimResult base_res;
  const auto expected = run_engine(Engine::loopback, cfg, base_res);
  const std::uint64_t disk0_calls =
      (base_res.per_proc_io[0].blocks_read +
       base_res.per_proc_io[0].blocks_written) /
      4;
  ASSERT_GT(disk0_calls, 8u);

  const auto dir = fresh_dir("crash_kill9_transport");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto doomed = cfg;
    doomed.checkpoint.dir = dir;
    doomed.faults.scripted.push_back(
        {em::FaultKind::crash, 0u, disk0_calls / 2});
    SimResult r;
    try {
      run_engine(Engine::loopback, doomed, r);
    } catch (...) {
    }
    std::_Exit(0);  // reached only if the crash point never fired
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 137) << "child should die at the crash point";

  auto resumed = cfg;
  resumed.checkpoint.dir = dir;
  resumed.checkpoint.resume = true;
  SimResult res;
  const auto got = run_engine(Engine::loopback, resumed, res);
  EXPECT_EQ(got, expected);
  expect_same_costs(base_res, res);
  EXPECT_GT(res.recovery.resume_epoch, 0u);
  EXPECT_EQ(digest_of(res, got), kGoldenPlain);
}

TEST(CrashRestart, KillNineMidSocketRunThenResumeMatches) {
  // The oracle over a real socket mesh: a forked child runs two ranks over
  // unix-domain sockets with checkpointing until a crash point on rank 0's
  // disk 0 kills the whole process (sockets, disks and all); the parent
  // resumes both ranks over a fresh mesh from the orphaned directory.
  auto cfg = base_config(2, 16, em::IoEngine::serial);
  SimResult base_res;
  const auto expected = run_engine(Engine::socket, cfg, base_res);
  EXPECT_EQ(digest_of(base_res, expected), kGoldenPlain);
  const std::uint64_t disk0_calls =
      (base_res.per_proc_io[0].blocks_read +
       base_res.per_proc_io[0].blocks_written) /
      4;
  ASSERT_GT(disk0_calls, 8u);

  const auto dir = fresh_dir("crash_kill9_socket");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto doomed = cfg;
    doomed.checkpoint.dir = dir;
    doomed.faults.scripted.push_back(
        {em::FaultKind::crash, 0u, disk0_calls / 2});
    SimResult r;
    try {
      run_engine(Engine::socket, doomed, r);
    } catch (...) {
    }
    std::_Exit(0);  // reached only if the crash point never fired
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 137) << "child should die at the crash point";

  auto resumed = cfg;
  resumed.checkpoint.dir = dir;
  resumed.checkpoint.resume = true;
  SimResult res;
  const auto got = run_engine(Engine::socket, resumed, res);
  EXPECT_EQ(got, expected);
  expect_same_costs(base_res, res);
  EXPECT_GT(res.recovery.resume_epoch, 0u);
  EXPECT_EQ(digest_of(res, got), kGoldenPlain);
}

// --- Parallel simulator: resume + coordinated rollback ----------------------

void par_cancel_resume_case(em::IoEngine engine, bool recovery,
                            const std::string& tag,
                            Engine sim_engine = Engine::par) {
  auto cfg = base_config(2, 16, engine);
  cfg.superstep_recovery = recovery;
  cfg.checkpoint.dir = fresh_dir(tag + "_base");
  SimResult base_res;
  const auto expected = run_engine(sim_engine, cfg, base_res);
  const std::uint64_t golden = recovery ? kGoldenJournaled : kGoldenPlain;
  EXPECT_EQ(digest_of(base_res, expected), golden) << tag;

  auto killed = cfg;
  killed.checkpoint.dir = fresh_dir(tag);
  std::atomic<bool> cancel{false};
  killed.cancel = &cancel;
  SimResult dead_res;
  EXPECT_THROW(run_engine(sim_engine, killed, dead_res, &cancel, 1),
               CanceledError);

  auto resumed = cfg;
  resumed.checkpoint.dir = killed.checkpoint.dir;
  resumed.checkpoint.resume = true;
  SimResult res;
  const auto got = run_engine(sim_engine, resumed, res);
  EXPECT_EQ(got, expected) << tag;
  expect_same_costs(base_res, res);
  EXPECT_GT(res.recovery.resume_epoch, 0u);
  EXPECT_EQ(digest_of(res, got), golden) << tag;
}

TEST(ParResume, CancelThenResumeParallelEngine) {
  par_cancel_resume_case(em::IoEngine::parallel, false, "par_plain");
}

TEST(ParResume, CancelThenResumeWithJournaledContexts) {
  par_cancel_resume_case(em::IoEngine::parallel, true, "par_journal");
}

TEST(ParResume, CancelThenResumeUring) {
  par_cancel_resume_case(em::IoEngine::uring, false, "par_uring");
}

TEST(TransportResume, CancelThenResumeOverLoopback) {
  par_cancel_resume_case(em::IoEngine::parallel, false, "tp_loop",
                         Engine::loopback);
  par_cancel_resume_case(em::IoEngine::parallel, true, "tp_loop_journal",
                         Engine::loopback);
}

TEST(TransportResume, CancelThenResumeOverSocket) {
  par_cancel_resume_case(em::IoEngine::parallel, false, "tp_sock",
                         Engine::socket);
  par_cancel_resume_case(em::IoEngine::parallel, true, "tp_sock_journal",
                         Engine::socket);
}

void par_rollback_case(em::IoEngine engine, const std::string& tag,
                       Engine sim_engine = Engine::par) {
  // Clean reference: coordinated recovery on (journaled banks change the
  // disk layout, so the reference must run the same layout).
  auto clean = base_config(2, 16, engine);
  clean.superstep_recovery = true;
  clean.block_checksums = true;
  SimResult clean_res;
  const auto expected = run_engine(sim_engine, clean, clean_res);
  EXPECT_EQ(digest_of(clean_res, expected), kGoldenJournaled) << tag;

  // Hostile run: a burst longer than the retry budget on proc 0's disk 0,
  // placed mid-run.  The giveup must trigger a rollback of ALL processors
  // to the last committed epoch, then a successful re-execution.
  const std::uint64_t proc0_calls =
      (clean_res.per_proc_io[0].blocks_read +
       clean_res.per_proc_io[0].blocks_written) /
      4;
  ASSERT_GT(proc0_calls, 8u) << tag;
  auto hostile = clean;
  hostile.faults.seed = 5;
  hostile.faults.bursts.push_back(
      {0u, proc0_calls / 2,
       static_cast<std::uint64_t>(hostile.retry.max_attempts)});
  SimResult res;
  const auto got = run_engine(sim_engine, hostile, res);
  EXPECT_EQ(got, expected) << tag;
  EXPECT_EQ(res.recovery.io_giveups, 1u) << tag;
  EXPECT_GE(res.recovery.total_rollbacks(), 1u) << tag;
  // The failed attempt's I/O, retries and fault history included.
  EXPECT_EQ(digest_of(res, got), kGoldenRollback) << tag;
}

TEST(ParRecovery, CoordinatedRollbackCompletesParallelEngine) {
  par_rollback_case(em::IoEngine::parallel, "rollback_parallel");
}

TEST(ParRecovery, CoordinatedRollbackCompletesUring) {
  par_rollback_case(em::IoEngine::uring, "rollback_uring");
}

TEST(TransportRecovery, CoordinatedRollbackCompletesOverLoopback) {
  par_rollback_case(em::IoEngine::parallel, "rollback_loop", Engine::loopback);
}

TEST(TransportRecovery, CoordinatedRollbackCompletesOverSocket) {
  par_rollback_case(em::IoEngine::parallel, "rollback_sock", Engine::socket);
}

TEST(TransportRecovery, GiveupAtEveryCallOfAMultiBlockRunRecovers) {
  // One message spanning many blocks, and a giveup swept across every
  // backend call of rank 0's disk 0.  Some of those land mid-fetch, so the
  // peer reassembles a message whose blocks never all arrive — a
  // secondary failure it must tolerate because the failed flag came with
  // the same exchange.  Every placement must roll back and recover.
  BigMessageProgram prog;
  prog.words = 1500;
  auto cfg = base_config(2, 4, em::IoEngine::serial);
  cfg.machine.em.D = 2;
  cfg.gamma = 14000;
  cfg.superstep_recovery = true;
  cfg.block_checksums = true;
  std::uint64_t disk0_calls = 0;  // rank 0's disk 0, backend calls
  auto run = [&](const SimConfig& c, SimResult& result) {
    auto eps = net::make_loopback_group(2);
    std::vector<std::uint64_t> sums(c.machine.bsp.v);
    run_ranks(eps, [&](std::uint32_t me, net::Transport& tp) {
      DistSimulator sim(c, tp);
      std::function<void(std::uint32_t, BigMessageProgram::State&)> collect;
      if (me == 0) {
        collect = [&](std::uint32_t vp, BigMessageProgram::State& st) {
          sums[vp] = st.sum;
        };
      }
      auto r = sim.run<BigMessageProgram>(
          prog, [](std::uint32_t) { return BigMessageProgram::State{}; },
          collect);
      if (me == 0) {
        result = std::move(r);
        const auto& disk0 = sim.disks().disk(0);
        disk0_calls = disk0.reads() + disk0.writes();
      }
    });
    return sums;
  };
  SimResult clean_res;
  const auto expected = run(cfg, clean_res);
  ASSERT_GT(expected.back(), 0u);
  const std::uint64_t clean_calls = disk0_calls;
  ASSERT_GT(clean_calls, 8u);
  for (std::uint64_t at = 0; at < clean_calls; ++at) {
    auto hostile = cfg;
    hostile.faults.seed = 5;
    hostile.faults.bursts.push_back(
        {0u, at, static_cast<std::uint64_t>(hostile.retry.max_attempts)});
    SimResult res;
    EXPECT_EQ(run(hostile, res), expected) << "giveup at call " << at;
    EXPECT_EQ(res.recovery.io_giveups, 1u) << "giveup at call " << at;
    EXPECT_GE(res.recovery.total_rollbacks(), 1u) << "giveup at call " << at;
  }
}

TEST(ParRecovery, RetryBudgetExhaustionStillSurfacesError) {
  // A fault that outlives every rollback attempt must abort the run with
  // the underlying IoError — bounded retries, no hang, no silent loss.
  auto cfg = base_config(2, 16, em::IoEngine::parallel);
  cfg.superstep_recovery = true;
  cfg.block_checksums = true;
  cfg.max_superstep_retries = 1;
  cfg.faults.seed = 5;
  cfg.faults.bursts.push_back({0u, 8u, 100000u});  // effectively forever
  SimResult res;
  EXPECT_THROW(run_sim<ParSimulator>(cfg, res), em::IoError);
}

void abort_flush_case(Engine engine) {
  // A run that dies mid-flight must still leave its counters in the
  // attached registry (that is when a post-mortem needs them).
  auto cfg = base_config(2, 16, em::IoEngine::parallel);
  cfg.superstep_recovery = false;  // no rollback: the giveup is fatal
  cfg.faults.seed = 5;
  cfg.faults.bursts.push_back({0u, 8u, 100000u});
  obs::Recorder recorder;
  cfg.recorder = &recorder;
  SimResult res;
  EXPECT_THROW(run_engine(engine, cfg, res), em::IoError);
  std::ostringstream json;
  recorder.registry.write_json(json);
  EXPECT_NE(json.str().find("recovery.io_giveups"), std::string::npos);
  EXPECT_NE(json.str().find("faults.injected"), std::string::npos);
  EXPECT_GE(recorder.registry.counter("recovery.io_giveups"), 1u)
      << engine_name(engine);
}

TEST(ParRecovery, AbortStillFlushesRegistry) {
  abort_flush_case(Engine::par);
}

TEST(TransportRecovery, AbortStillFlushesRegistryOverLoopback) {
  abort_flush_case(Engine::loopback);
}

TEST(TransportRecovery, AbortStillFlushesRegistryOverSocket) {
  abort_flush_case(Engine::socket);
}

TEST(ParCheckpoint, CheckpointingItselfChangesNothing) {
  auto plain = base_config(2, 16, em::IoEngine::parallel);
  SimResult plain_res;
  const auto plain_sums = run_sim<ParSimulator>(plain, plain_res);

  auto ckpt = plain;
  ckpt.checkpoint.dir = fresh_dir("par_noop");
  SimResult ckpt_res;
  const auto ckpt_sums = run_sim<ParSimulator>(ckpt, ckpt_res);

  EXPECT_EQ(plain_sums, ckpt_sums);
  expect_same_costs(plain_res, ckpt_res);
  EXPECT_GT(ckpt_res.recovery.checkpoints, 0u);
}

TEST(ObsHooks, CheckpointCountersExported) {
  auto cfg = base_config(1, 16, em::IoEngine::serial);
  cfg.checkpoint.dir = fresh_dir("obs_gauges");
  obs::Recorder recorder;
  cfg.recorder = &recorder;
  SimResult res;
  run_sim<SeqSimulator>(cfg, res);
  std::ostringstream json;
  recorder.registry.write_json(json);
  EXPECT_NE(json.str().find("recovery.checkpoints"), std::string::npos);
  EXPECT_NE(json.str().find("checkpoint.bytes"), std::string::npos);
  EXPECT_NE(json.str().find("checkpoint.latency_ns"), std::string::npos);
}

}  // namespace
}  // namespace embsp::sim
