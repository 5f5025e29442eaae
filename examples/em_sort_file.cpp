// STXXL-style usage: sort a dataset that lives on real disk files.
//
// The simulated EM machine's drives are backed by flat files (one per
// drive), so every parallel I/O the cost meter charges corresponds to real
// file reads/writes.  The same cgm_sort call used everywhere else runs
// unchanged — only the backend factory differs.
//
//   ./examples/em_sort_file [n]

#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "embsp/embsp.hpp"

using namespace embsp;

namespace {
struct KeyLess {
  bool operator()(std::uint64_t a, std::uint64_t b) const { return a < b; }
};
}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                   : (1ull << 18);
  constexpr std::size_t kD = 4;
  constexpr std::size_t kB = 4096;
  std::cout << "sorting " << n << " keys (" << util::fmt_bytes(n * 8)
            << ") on " << kD << " file-backed disks\n";

  auto keys = util::random_keys(n, 42);

  sim::SimConfig cfg;
  cfg.machine.p = 1;
  cfg.machine.bsp.v = 64;
  cfg.machine.em = {1 << 22, kD, kB, 1.0};

  const auto dir = std::filesystem::temp_directory_path() / "embsp_demo";
  std::filesystem::create_directories(dir);
  auto backend = [dir](std::size_t disk) {
    return em::make_file_backend(
        (dir / ("disk" + std::to_string(disk) + ".bin")).string());
  };

  // Configure mu/gamma from the sort's declared requirements (no dry run),
  // then build the simulator with the file backends (what cgm::SeqEmExec
  // does internally, spelled out here because of the custom backend).
  cgm::SortProgram<std::uint64_t, KeyLess> prog{n};
  using State = cgm::SortProgram<std::uint64_t, KeyLess>::State;
  cgm::BlockDist dist{n, cfg.machine.bsp.v};
  auto make_state = [&](std::uint32_t pid) {
    State s;
    s.data.assign(keys.begin() + dist.first(pid),
                  keys.begin() + dist.first(pid) + dist.count(pid));
    return s;
  };
  cfg = cgm::autoconfigure(cfg, prog, cfg.machine.bsp.v,
                           std::function<State(std::uint32_t)>(make_state));
  sim::SeqSimulator simulator(cfg, backend);

  std::vector<std::uint64_t> sorted;
  auto result = simulator.run<cgm::SortProgram<std::uint64_t, KeyLess>>(
      prog, make_state, [&](std::uint32_t, State& s) {
        sorted.insert(sorted.end(), s.data.begin(), s.data.end());
      });

  const bool ok = std::is_sorted(sorted.begin(), sorted.end()) &&
                  sorted.size() == n;
  std::cout << "sorted correctly:        " << (ok ? "yes" : "NO") << "\n";
  std::cout << "supersteps:              " << result.lambda() << "\n";
  std::cout << "parallel I/O operations: " << result.total_io.parallel_ios
            << "\n";
  std::cout << "bytes through the disks: "
            << util::fmt_bytes(result.total_io.bytes_read +
                               result.total_io.bytes_written)
            << "\n";
  std::uint64_t on_disk = 0;
  for (std::size_t d = 0; d < kD; ++d) {
    on_disk += simulator.disks().disk(d).tracks_used() * kB;
  }
  std::cout << "disk space used:         " << util::fmt_bytes(on_disk)
            << " across " << kD << " files in " << dir << "\n";
  std::filesystem::remove_all(dir);
  return ok ? 0 : 1;
}
