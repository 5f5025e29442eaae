// Traced-run parity: at a small n for each workload, a traced repetition
// (TracedProgram, TimedBackend, TimedTransport, obs::Recorder attached)
// must produce the same outputs, the same SimResult costs and the same
// model parallel I/O count as an untraced one — the decorators time the
// program without changing it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/span.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using e2ebench::trace::Kind;

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  static_assert(std::is_trivially_copyable_v<T>);
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <typename T>
bool same_bytes(const T& a, const T& b) {
  static_assert(std::is_trivially_copyable_v<T>);
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

struct Run {
  e2ebench::Output out;
  e2ebench::trace::Totals totals{};
  std::string problem;
};

Run run_once(const e2ebench::WorkloadSpec& w, const e2ebench::Input& in,
             bool traced) {
  namespace trace = e2ebench::trace;
  trace::set_enabled(traced);
  if (traced) trace::begin_run();
  embsp::obs::Recorder recorder;
  const e2ebench::ScratchDir dir(fs::current_path() /
                                 ("e2ebench-parity-" + std::to_string(getpid())));
  e2ebench::DrivePool drives(dir.path(), w);
  Run run;
  run.out = e2ebench::run_cgm(w, in, drives, traced ? &recorder : nullptr);
  trace::set_enabled(false);
  if (traced) run.totals = trace::totals();
  run.problem = e2ebench::check(w, in, run.out);
  return run;
}

void expect_parity(const char* name, std::uint64_t n) {
  const e2ebench::WorkloadSpec w =
      e2ebench::resized(*e2ebench::find_workload(name), n);
  const e2ebench::Input in = e2ebench::generate(w, 7);
  const Run plain = run_once(w, in, false);
  const Run traced = run_once(w, in, true);
  EXPECT_EQ(plain.problem, "");
  EXPECT_EQ(traced.problem, "");

  // Same outputs.
  EXPECT_EQ(plain.out.sorted, traced.out.sorted);
  EXPECT_EQ(plain.out.rank1, traced.out.rank1);
  EXPECT_EQ(plain.out.rank2, traced.out.rank2);
  EXPECT_EQ(plain.out.component, traced.out.component);

  // Same SimResult costs and model I/O.
  const auto& a = *plain.out.exec.sim;
  const auto& b = *traced.out.exec.sim;
  EXPECT_EQ(plain.out.exec.lambda, traced.out.exec.lambda);
  EXPECT_TRUE(same_bytes(a.costs.supersteps, b.costs.supersteps));
  EXPECT_TRUE(same_bytes(a.total_io, b.total_io));
  EXPECT_TRUE(same_bytes(a.per_proc_io, b.per_proc_io));
  EXPECT_TRUE(same_bytes(a.phase_io, b.phase_io));
  EXPECT_TRUE(same_bytes(a.routing_stats, b.routing_stats));
  EXPECT_EQ(a.group_size, b.group_size);
  EXPECT_EQ(a.max_tracks_per_disk, b.max_tracks_per_disk);
  EXPECT_EQ(e2ebench::model_parallel_ios(a), e2ebench::model_parallel_ios(b));
  EXPECT_GT(e2ebench::model_parallel_ios(a), 0u);

  // The traced run did go through every decorator.
  auto calls = [&](Kind k) {
    return traced.totals[static_cast<std::size_t>(k)].calls;
  };
  EXPECT_EQ(calls(Kind::bsp_dry_run), w.p);
  EXPECT_EQ(calls(Kind::sim_run), w.p);
  EXPECT_EQ(calls(Kind::cgm_superstep), plain.out.exec.lambda * e2ebench::kV);
  EXPECT_GT(calls(Kind::cgm_serialize), 0u);
  EXPECT_GT(calls(Kind::cgm_deserialize), 0u);
  EXPECT_GT(calls(Kind::em_read), 0u);
  EXPECT_GT(calls(Kind::em_write), 0u);
  if (w.p > 1) {
    EXPECT_GT(calls(Kind::net_exchange), 0u);
    EXPECT_GT(calls(Kind::net_post), 0u);
  }
}

TEST(TracedParity, SortFile) { expect_parity("sort_file", 50'000); }
TEST(TracedParity, ListrankFile) { expect_parity("listrank_file", 20'000); }
TEST(TracedParity, CcLoopback) { expect_parity("cc_loopback", 5'000); }

}  // namespace
