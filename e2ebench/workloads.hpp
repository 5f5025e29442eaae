// The benchmark's three workloads: inputs from the util:: generators, the
// drive files they run on, the call into the public cgm functions
// (cgm_sort, cgm_list_ranking, cgm_connected_components), and an
// independent check of each output.  README.md gives the reasons
// each workload was chosen and which layers it exercises.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_exec.hpp"
#include "obs/span.hpp"
#include "sim/sim_config.hpp"
#include "util/workloads.hpp"

namespace e2ebench {

/// Machine shared by every workload: v = 64, B = 64 KiB, M = 32 MiB per
/// processor, G = 1, compact routing.
inline constexpr std::uint32_t kV = 64;
inline constexpr std::size_t kBlockBytes = 64 * 1024;
inline constexpr std::size_t kMemBytes = 32 * 1024 * 1024;
/// The simulator's own RNG seed (disk placement, routing) is part of the
/// machine, not of the workload: --seed reaches only the util::
/// generators.  At 42 the model counts for --seed 42 equal those of
/// `embsp <workload> --seed 42`, which seeds both with one value.
inline constexpr std::uint64_t kSimSeed = 42;

struct WorkloadSpec {
  std::string_view name;
  std::uint64_t n;       ///< records (keys, list nodes, vertices) per input
  std::uint32_t p;       ///< real processors (> 1: loopback DistSimulator)
  std::uint32_t disks;   ///< D per processor
  bool pipeline;         ///< pipelined schedule + parallel I/O engine
  /// Inputs one repetition runs, one cgm call each.  More than one where
  /// the work itself varies with the seed (cc: λ is 77, 81 or 85), so a
  /// repetition averages over several inputs instead of landing on one.
  std::uint32_t inputs;
};

/// The workload named `name` at its benchmark size, or nullptr for an
/// unknown name.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);
/// The same workload at another size (the parity test runs small ones).
[[nodiscard]] WorkloadSpec resized(const WorkloadSpec& w, std::uint64_t n);

/// Simulator configuration of a workload; `recorder` may be null.
[[nodiscard]] embsp::sim::SimConfig make_config(const WorkloadSpec& w,
                                                embsp::obs::Recorder* recorder);

/// Generated input; only the fields of the workload's kind are filled.
struct Input {
  std::vector<std::uint64_t> keys;  ///< sort_file
  std::vector<std::uint64_t> succ;  ///< listrank_file
  std::uint64_t head = 0;
  std::vector<embsp::util::Edge> edges;  ///< cc_loopback
  std::vector<std::uint64_t> truth;
};

[[nodiscard]] Input generate(const WorkloadSpec& w, std::uint64_t seed);

/// Generator seed of a repetition's input `j`: input 0 uses --seed itself,
/// so a one-input workload sees exactly the CLI's input for that seed.
[[nodiscard]] constexpr std::uint64_t input_seed(std::uint64_t seed,
                                                 std::uint32_t j) {
  return seed + (static_cast<std::uint64_t>(j) << 32);
}

/// Creates `dir` and removes it with everything in it on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(std::filesystem::path dir);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return dir_; }

 private:
  std::filesystem::path dir_;
};

/// The p·D drive files of one cgm call, created in `dir` up front so
/// creating them counts as set-up, not as run time.  The simulators' backend factories
/// take them out by machine-wide drive index (rank·D + d).  File names
/// carry the rank and the disk, so ranks never share a file.
class DrivePool {
 public:
  DrivePool(const std::filesystem::path& dir, const WorkloadSpec& w);

  /// Factory handing out each drive once; wraps it in TimedBackend while
  /// tracing is on.
  [[nodiscard]] DriveFactory factory();

 private:
  std::vector<std::unique_ptr<embsp::em::Backend>> drives_;
};

/// Everything a cgm call produced.  For p > 1 every rank's outcome is
/// kept; the collect allgather makes them identical.
struct Output {
  std::vector<std::uint64_t> sorted;           ///< sort_file
  std::vector<std::uint64_t> rank1, rank2;     ///< listrank_file
  std::vector<std::vector<std::uint64_t>> component;  ///< cc_loopback, per rank
  embsp::cgm::ExecResult exec;                 ///< rank 0
};

/// The timed cgm call: one cgm function over BenchExec on the pool's
/// drives (for p > 1, one thread per rank over a loopback group, rank 0 on
/// the calling thread).
[[nodiscard]] Output run_cgm(const WorkloadSpec& w, const Input& in,
                                DrivePool& drives,
                                embsp::obs::Recorder* recorder);

/// Checks the output against the input independently of the program;
/// returns an empty string when correct, else what is wrong.
[[nodiscard]] std::string check(const WorkloadSpec& w, const Input& in,
                                const Output& out);

/// The paper's metric: parallel I/Os, max over real processors.
[[nodiscard]] std::uint64_t model_parallel_ios(const embsp::sim::SimResult& r);

}  // namespace e2ebench
