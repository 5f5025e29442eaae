// Context write elision is invisible to everything the model and the
// program can observe.  List ranking and connected components run on the
// sequential simulator, ParSimulator and DistSimulator ranks driven over
// loopback, with and without superstep recovery.  Recovery journals the
// context store, and a journaled store never elides; without it, unchanged
// context blocks are not written back.  Results, SuperstepCosts, total I/O
// and the phase breakdown must be identical either way; only
// engine.elided_tracks tells the runs apart.  Both p > 1 drivers run the
// same rank loop, so the directly driven ranks are held against the
// journaled ParSimulator run.
#include <gtest/gtest.h>

#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "cgm/graph_components.hpp"
#include "cgm/graph_list_ranking.hpp"
#include "net/transport.hpp"
#include "obs/span.hpp"
#include "util/workloads.hpp"

namespace embsp {
namespace {

constexpr std::uint32_t kV = 16;
constexpr std::uint32_t kP = 2;

enum class Workload { list_ranking, components };
enum class Simulator { seq, par, dist };

struct SwapRun {
  std::vector<std::uint64_t> out;  ///< ranks or component labels
  sim::SimResult sim;
  std::uint64_t elided = 0;  ///< engine.elided_tracks over all processors
};

template <class T>
std::vector<std::byte> raw_bytes(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::byte> out(sizeof(T));
  std::memcpy(out.data(), &value, sizeof(T));
  return out;
}

sim::SimConfig swap_config(bool recovery, bool pipeline,
                           obs::Recorder* rec) {
  sim::SimConfig cfg;
  cfg.machine.em = {64u << 10, 4, 1024, 1.0};
  cfg.superstep_recovery = recovery;
  cfg.pipeline = pipeline;
  // Two compute lanes deserialize from the read staging while the next
  // group's prefetch is in flight.
  if (pipeline) cfg.compute_threads = 2;
  cfg.recorder = rec;
  return cfg;
}

template <class Exec>
std::vector<std::uint64_t> drive(Workload w, Exec& exec,
                                 std::optional<sim::SimResult>& result) {
  if (w == Workload::list_ranking) {
    const auto list = util::random_list(3000, 41).first;
    auto o = cgm::cgm_list_ranking(exec, list, kV);
    result = std::move(o.exec.sim);
    return o.rank1;
  }
  const auto edges = util::random_graph(1000, 1500, 43);
  auto o = cgm::cgm_connected_components(exec, 1000, edges, kV);
  result = std::move(o.exec.sim);
  return o.component;
}

std::uint64_t elided_tracks(const obs::Registry& reg, std::uint32_t proc) {
  return reg.counter("proc." + std::to_string(proc) +
                     ".engine.elided_tracks");
}

SwapRun run_swap(Workload w, Simulator s, bool recovery, bool pipeline) {
  SwapRun r;
  std::optional<sim::SimResult> result;
  if (s == Simulator::seq) {
    obs::Recorder rec;
    cgm::SeqEmExec exec(swap_config(recovery, pipeline, &rec));
    r.out = drive(w, exec, result);
    r.elided = rec.registry.counter("engine.elided_tracks");
  } else if (s == Simulator::par) {
    obs::Recorder rec;
    auto cfg = swap_config(recovery, pipeline, &rec);
    cfg.machine.p = kP;
    cgm::ParEmExec exec(cfg);
    r.out = drive(w, exec, result);
    for (std::uint32_t i = 0; i < kP; ++i) {
      r.elided += elided_tracks(rec.registry, i);
    }
  } else {
    auto group = net::make_loopback_group(kP);
    std::vector<obs::Recorder> recs(kP);
    std::vector<std::vector<std::uint64_t>> outs(kP);
    std::vector<std::optional<sim::SimResult>> results(kP);
    std::vector<std::exception_ptr> errors(kP);
    auto rank = [&](std::uint32_t me) {
      try {
        cgm::DistEmExec exec(swap_config(recovery, pipeline, &recs[me]),
                             *group[me]);
        outs[me] = drive(w, exec, results[me]);
      } catch (...) {
        errors[me] = std::current_exception();
      }
    };
    {
      std::jthread peer(rank, 1);
      rank(0);
    }
    for (std::uint32_t me = 0; me < kP; ++me) {
      if (errors[me]) std::rethrow_exception(errors[me]);
      EXPECT_EQ(outs[me], outs[0]) << "rank " << me;
      r.elided += elided_tracks(recs[me].registry, me);
    }
    r.out = std::move(outs[0]);
    result = std::move(results[0]);
  }
  EXPECT_TRUE(result.has_value());
  if (result.has_value()) r.sim = std::move(*result);
  return r;
}

/// Everything the model and the program see must match.
void expect_same_run(const SwapRun& a, const SwapRun& b,
                     const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.out, b.out);
  ASSERT_EQ(a.sim.costs.supersteps.size(), b.sim.costs.supersteps.size());
  for (std::size_t i = 0; i < a.sim.costs.supersteps.size(); ++i) {
    EXPECT_EQ(raw_bytes(a.sim.costs.supersteps[i]),
              raw_bytes(b.sim.costs.supersteps[i]))
        << "superstep " << i;
  }
  EXPECT_EQ(raw_bytes(a.sim.total_io), raw_bytes(b.sim.total_io));
  ASSERT_EQ(a.sim.per_proc_io.size(), b.sim.per_proc_io.size());
  for (std::size_t i = 0; i < a.sim.per_proc_io.size(); ++i) {
    EXPECT_EQ(raw_bytes(a.sim.per_proc_io[i]),
              raw_bytes(b.sim.per_proc_io[i]))
        << "processor " << i;
  }
  EXPECT_EQ(raw_bytes(a.sim.phase_io), raw_bytes(b.sim.phase_io));
}

struct SwapCase {
  Workload workload;
  bool pipeline;
};

class ContextSwapParity : public ::testing::TestWithParam<SwapCase> {};

TEST_P(ContextSwapParity, ElisionLeavesModelAndResultsUnchanged) {
  const auto [w, pipeline] = GetParam();

  const SwapRun seq_journaled = run_swap(w, Simulator::seq, true, pipeline);
  const SwapRun seq = run_swap(w, Simulator::seq, false, pipeline);
  // Several groups swap through the staging slots.
  EXPECT_LT(seq.sim.group_size, kV);
  expect_same_run(seq_journaled, seq, "seq");
  EXPECT_EQ(seq_journaled.elided, 0u);
  EXPECT_GT(seq.elided, 0u);

  const SwapRun par_journaled = run_swap(w, Simulator::par, true, pipeline);
  const SwapRun par = run_swap(w, Simulator::par, false, pipeline);
  expect_same_run(par_journaled, par, "par");
  EXPECT_EQ(par_journaled.elided, 0u);
  EXPECT_GT(par.elided, 0u);

  const SwapRun dist_journaled =
      run_swap(w, Simulator::dist, true, pipeline);
  const SwapRun dist = run_swap(w, Simulator::dist, false, pipeline);
  expect_same_run(par_journaled, dist_journaled, "loopback dist journaled");
  expect_same_run(par_journaled, dist, "loopback dist");
  EXPECT_EQ(dist_journaled.elided, 0u);
  EXPECT_GT(dist.elided, 0u);

  EXPECT_EQ(seq.out, par.out);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ContextSwapParity,
    ::testing::Values(SwapCase{Workload::list_ranking, false},
                      SwapCase{Workload::list_ranking, true},
                      SwapCase{Workload::components, false},
                      SwapCase{Workload::components, true}),
    [](const ::testing::TestParamInfo<SwapCase>& info) {
      return std::string(info.param.workload == Workload::list_ranking
                             ? "ListRanking"
                             : "Components") +
             (info.param.pipeline ? "Pipelined" : "Blocking");
    });

}  // namespace
}  // namespace embsp
