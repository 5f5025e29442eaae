// Declared requirements (bsp::DeclaresRequirements) and their enforcement.
//
//  * Oracle: for sort, list ranking and connected components, the declared
//    mu, gamma and exchange are at least what a dry run on the direct
//    runtime measures, over a grid of v, n and input shapes (ties, stars).
//  * Planning: at the repository benchmark's machine shapes the declared
//    values give the layout planner the same k and group count as the
//    measured-plus-margin values the executors used to compute.
//  * Sort and connected components keep automatic routing in memory where
//    the measured values did: their declared exchange caps the capacity a
//    group is planned to receive.
//  * autoconfigure never builds a state for a declaring program.
//  * A program that under-declares fails with sim::RequirementError on the
//    sequential, threaded and loopback-distributed simulators, and never
//    produces a result.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <numeric>
#include <thread>

#include "cgm/graph_components.hpp"
#include "cgm/graph_list_ranking.hpp"
#include "cgm/sort.hpp"
#include "net/transport.hpp"
#include "obs/span.hpp"
#include "sim/layout_planner.hpp"
#include "sim/requirements.hpp"
#include "util/rng.hpp"
#include "util/workloads.hpp"

namespace embsp {
namespace {

using cgm::ExecResult;

constexpr std::uint32_t kVs[] = {1, 2, 7, 16, 64};

/// Executor that, for every declaring program it is handed, records the
/// declared requirements next to the measured ones, then runs the program
/// on the direct runtime so the driver's output can be checked too.
class OracleExec {
 public:
  struct Pair {
    bsp::Requirements declared;
    bsp::Requirements measured;
  };

  template <bsp::Program P>
  ExecResult run(
      const P& prog, std::uint32_t v,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect) {
    if constexpr (bsp::DeclaresRequirements<P>) {
      seen.push_back(Pair{prog.requirements(v),
                          bsp::measure_requirements(prog, v, make_state)});
    }
    return cgm::DirectExec().run(prog, v, make_state, collect);
  }

  std::vector<Pair> seen;
};

void expect_declared_covers_measured(const OracleExec& exec,
                                     const std::string& tag) {
  ASSERT_EQ(exec.seen.size(), 1u) << tag;
  const auto& [declared, measured] = exec.seen.front();
  EXPECT_GE(declared.mu, measured.mu) << tag;
  EXPECT_GE(declared.gamma, measured.gamma) << tag;
  if (declared.exchange != 0) {
    EXPECT_GE(declared.exchange, measured.exchange) << tag;
  }
  if (declared.lambda != 0) {
    EXPECT_EQ(declared.lambda, measured.lambda) << tag;
  }
}

// --- Sort -----------------------------------------------------------------

std::vector<std::uint64_t> sort_input(const std::string& shape,
                                      std::size_t n, std::uint32_t v) {
  std::vector<std::uint64_t> keys(n);
  if (shape == "random") return util::random_keys(n, 7 + n);
  if (shape == "sorted" || shape == "reversed") {
    std::iota(keys.begin(), keys.end(), 0u);
    if (shape == "reversed") std::reverse(keys.begin(), keys.end());
  } else if (shape == "all_equal") {
    std::fill(keys.begin(), keys.end(), 42u);
  } else if (shape == "three_distinct") {
    for (std::size_t i = 0; i < n; ++i) keys[i] = (i * 7919) % 3;
  } else {
    // "heavy_tie": one key holds 3/2 of a processor's share, scattered
    // over the input, the rest distinct.  Its samples straddle a single
    // splitter, the case where partitioning by key alone overflows 2n/v.
    keys = util::random_keys(n, 11 + n);
    const std::size_t share = (n + v - 1) / v;
    util::Rng rng(n + v);
    for (std::size_t j = 0; j < share + share / 2 && n > 0; ++j) {
      keys[rng.below(n)] = keys[n / 2];
    }
  }
  return keys;
}

TEST(DeclaredRequirements, SortCoversMeasuredOnEveryShape) {
  for (const std::uint32_t v : kVs) {
    for (const std::size_t n : {0u, 1u, 5u, 63u, 100u, 1000u, 5000u}) {
      for (const char* shape : {"random", "sorted", "reversed", "all_equal",
                                "three_distinct", "heavy_tie"}) {
        const std::string tag = std::string(shape) + " n=" +
                                std::to_string(n) + " v=" + std::to_string(v);
        const auto keys = sort_input(shape, n, v);
        OracleExec exec;
        const auto out =
            cgm::cgm_sort<std::uint64_t, std::less<>>(exec, keys, v);
        expect_declared_covers_measured(exec, tag);
        EXPECT_NE(exec.seen.front().declared.exchange, 0u) << tag;
        auto want = keys;
        std::sort(want.begin(), want.end());
        EXPECT_EQ(out.sorted, want) << tag;
        // The bucket bound behind the declared mu, checked directly.
        const std::uint64_t chunk = cgm::BlockDist{n, v}.chunk();
        for (const auto slab : out.slab_sizes) {
          EXPECT_LE(slab, std::min<std::uint64_t>(2 * chunk, n)) << tag;
        }
      }
    }
  }
}

TEST(DeclaredRequirements, SortSplitsTiesAtDistinctSplitters) {
  // v = 4, 100 keys per processor, samples at local indices 0/25/50/75.
  // Processors 0-2 hold one small key, 74 copies of X and 25 large keys;
  // processor 3 holds 26 small keys, 49 copies of X and 25 large keys.
  // Seven of the sixteen samples are X but only the middle splitter is, so
  // the splitters are distinct — yet partitioning by key alone would send
  // all 271 copies of X to one processor, past 2 * 100.
  constexpr std::uint64_t kX = 1000;
  std::vector<std::uint64_t> keys;
  std::uint64_t large = 2000;
  for (std::uint64_t p = 0; p < 4; ++p) {
    const std::uint64_t smalls = p < 3 ? 1 : 26;
    for (std::uint64_t i = 0; i < smalls; ++i) {
      keys.push_back(p < 3 ? p + 1 : 10 + i);
    }
    for (std::uint64_t i = smalls; i < 75; ++i) keys.push_back(kX);
    for (std::uint64_t i = 75; i < 100; ++i) keys.push_back(large++);
  }
  OracleExec exec;
  const auto out = cgm::cgm_sort<std::uint64_t, std::less<>>(exec, keys, 4);
  expect_declared_covers_measured(exec, "distinct splitters");
  for (const auto slab : out.slab_sizes) EXPECT_LE(slab, 200u);
  auto want = keys;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(out.sorted, want);
}

TEST(DeclaredRequirements, SortOfRecordsKeepsStableOrderUnderTies) {
  // Keys tie, payloads do not: the (key, source, index) partition must
  // still emit the stable order.
  struct Rec {
    std::uint64_t key;
    std::uint64_t payload;
  };
  struct ByKey {
    bool operator()(const Rec& a, const Rec& b) const { return a.key < b.key; }
  };
  for (const std::uint32_t v : {2u, 7u, 16u}) {
    std::vector<Rec> recs(900);
    for (std::size_t i = 0; i < recs.size(); ++i) recs[i] = {i % 4, i};
    OracleExec exec;
    const auto out = cgm::cgm_sort<Rec, ByKey>(exec, recs, v);
    expect_declared_covers_measured(exec, "records v=" + std::to_string(v));
    auto want = recs;
    std::stable_sort(want.begin(), want.end(), ByKey{});
    ASSERT_EQ(out.sorted.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(out.sorted[i].payload, want[i].payload) << "v=" << v;
    }
  }
}

// --- List ranking ---------------------------------------------------------

std::vector<std::uint64_t> list_input(const std::string& shape,
                                      std::size_t n) {
  std::vector<std::uint64_t> succ(n);
  if (shape == "random") {
    return n == 0 ? succ : util::random_list(n, 3 + n).first;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (shape == "identity") {
      succ[i] = i + 1 < n ? i + 1 : i;
    } else {  // reversed: 0 is the tail
      succ[i] = i == 0 ? 0 : i - 1;
    }
  }
  return succ;
}

TEST(DeclaredRequirements, ListRankingCoversMeasuredOnEveryShape) {
  for (const std::uint32_t v : kVs) {
    for (const std::size_t n : {0u, 1u, 5u, 63u, 100u, 1000u}) {
      for (const char* shape : {"random", "identity", "reversed"}) {
        const std::string tag = std::string(shape) + " n=" +
                                std::to_string(n) + " v=" + std::to_string(v);
        const auto succ = list_input(shape, n);
        OracleExec exec;
        const auto out = cgm::cgm_list_ranking(exec, succ, v);
        expect_declared_covers_measured(exec, tag);
        // Spot-check the ranks against a sequential walk.
        for (std::size_t u = 0; u < n; ++u) {
          if (succ[u] == u) EXPECT_EQ(out.rank1[u], 0u) << tag;
          else EXPECT_EQ(out.rank1[u], out.rank1[succ[u]] + 1) << tag;
        }
      }
    }
  }
}

// --- Connected components -------------------------------------------------

std::vector<util::Edge> graph_input(const std::string& shape, std::size_t n) {
  std::vector<util::Edge> edges;
  if (shape == "random") {
    return n < 2 ? edges : util::random_graph(n, n + n / 2, 5 + n);
  }
  if (shape == "star_high" || shape == "star_low") {
    // Every edge asks the centre for its label; the high-labelled centre
    // also receives every hook.
    const std::uint64_t centre = shape == "star_high" ? n - 1 : 0;
    for (std::uint64_t u = 0; u < n; ++u) {
      if (u != centre) edges.push_back({u, centre});
    }
  } else if (shape == "path") {
    for (std::uint64_t u = 0; u + 1 < n; ++u) edges.push_back({u, u + 1});
  }
  return edges;  // "isolated": no edges at all
}

TEST(DeclaredRequirements, ComponentsCoverMeasuredOnEveryShape) {
  for (const std::uint32_t v : kVs) {
    for (const std::size_t n : {0u, 1u, 5u, 63u, 100u, 1000u}) {
      for (const char* shape :
           {"random", "star_high", "star_low", "path", "isolated"}) {
        const std::string tag = std::string(shape) + " n=" +
                                std::to_string(n) + " v=" + std::to_string(v);
        const auto edges = graph_input(shape, n);
        OracleExec exec;
        const auto out = cgm::cgm_connected_components(exec, n, edges, v);
        expect_declared_covers_measured(exec, tag);
        EXPECT_NE(exec.seen.front().declared.exchange, 0u) << tag;
        for (const auto& e : edges) {
          EXPECT_EQ(out.component[e.u], out.component[e.v]) << tag;
        }
      }
    }
  }
}

/// Runs `drive(exec)` on a SeqEmExec (p = 1) and a ParEmExec (p = 2) with
/// automatic routing on the CLI's default machine (D = 4, B = 512,
/// M = 4 MiB) and expects the in-memory routing path on both.
template <class Drive>
void expect_in_memory_routing(const Drive& drive, const std::string& tag) {
  for (const std::uint32_t p : {1u, 2u}) {
    obs::Recorder rec;
    sim::SimConfig cfg;
    cfg.machine.p = p;
    cfg.machine.em = {4u << 20, 4, 512, 1.0};
    cfg.routing = sim::RoutingMode::automatic;
    cfg.recorder = &rec;
    if (p == 1) {
      cgm::SeqEmExec exec(cfg);
      drive(exec);
    } else {
      cgm::ParEmExec exec(cfg);
      drive(exec);
    }
    EXPECT_DOUBLE_EQ(rec.registry.gauge("sim.in_memory_routing"), 1.0)
        << tag << " p=" << p;
  }
}

TEST(DeclaredRequirements, AutomaticRoutingStaysInMemory) {
  // At these sizes the whole exchange fits in what M leaves after the
  // contexts, as the measured gamma showed.  The declared gamma alone
  // would not: processor 0's splitter broadcast, and a star's label
  // queries, make it far larger than an average processor's traffic, so
  // k*gamma per group would send routing through the disks.  The
  // declared exchange caps what a group can receive.
  const auto keys = util::random_keys(20'000, 42);
  expect_in_memory_routing(
      [&](auto& exec) {
        const auto out =
            cgm::cgm_sort<std::uint64_t, std::less<>>(exec, keys, 64);
        EXPECT_TRUE(std::is_sorted(out.sorted.begin(), out.sorted.end()));
        EXPECT_EQ(out.sorted.size(), keys.size());
      },
      "sort");
  const std::uint64_t n = 2000;
  const auto edges = util::random_components_graph(n, 4, n, 42).first;
  expect_in_memory_routing(
      [&](auto& exec) {
        const auto out = cgm::cgm_connected_components(exec, n, edges, 64);
        for (const auto& e : edges) {
          EXPECT_EQ(out.component[e.u], out.component[e.v]);
        }
      },
      "cc");
}

// --- Planning at the benchmark shapes ---------------------------------------

struct BenchShape {
  const char* name;
  std::uint32_t p;
  std::size_t D;
  bool pipeline;
};

/// The machine of the repository benchmark (e2ebench/README.md): v = 64,
/// B = 64 KiB, M = 32 MiB per processor.
sim::SimConfig bench_config(const BenchShape& shape) {
  sim::SimConfig cfg;
  cfg.machine.p = shape.p;
  cfg.machine.bsp.v = 64;
  cfg.machine.em = {32u << 20, shape.D, 64u << 10, 1.0};
  cfg.pipeline = shape.pipeline;
  return cfg;
}

void expect_same_plan(const BenchShape& shape, const bsp::Requirements& decl,
                      const bsp::Requirements& measured) {
  auto a = bench_config(shape);
  auto b = a;
  a.mu = decl.mu;
  a.gamma = decl.gamma;
  const auto margin = sim::with_measured_margin(measured);
  b.mu = margin.mu;
  b.gamma = margin.gamma;
  const std::uint32_t local_v = a.machine.bsp.v / a.machine.p;
  const auto la = sim::LayoutPlanner::flat(a, local_v);
  const auto lb = sim::LayoutPlanner::flat(b, local_v);
  EXPECT_EQ(la.k, lb.k) << shape.name;
  EXPECT_EQ(la.num_groups, lb.num_groups) << shape.name;
}

TEST(DeclaredRequirements, BenchmarkShapesPlanTheSameGroups) {
  const std::uint32_t v = 64;
  // The drivers build the states; the oracle executor captures both sides.
  {
    const BenchShape shape{"sort_file", 1, 4, false};
    const auto keys = util::random_keys(8'000'000, 42);
    OracleExec exec;
    cgm::cgm_sort<std::uint64_t, std::less<>>(exec, keys, v);
    ASSERT_EQ(exec.seen.size(), 1u);
    expect_same_plan(shape, exec.seen[0].declared, exec.seen[0].measured);
    // The sort slot stays within M/16, so k stays 16.
    auto cfg = bench_config(shape);
    cfg.mu = exec.seen[0].declared.mu;
    cfg.gamma = exec.seen[0].declared.gamma;
    EXPECT_LE(sim::LayoutPlanner::flat(cfg, v).context_slot_bytes,
              cfg.machine.em.M / 16);
  }
  {
    const BenchShape shape{"listrank_file", 1, 4, false};
    const auto succ = util::random_list(1'000'000, 42).first;
    OracleExec exec;
    cgm::cgm_list_ranking(exec, succ, v);
    ASSERT_EQ(exec.seen.size(), 1u);
    expect_same_plan(shape, exec.seen[0].declared, exec.seen[0].measured);
  }
  {
    const BenchShape shape{"cc_loopback", 2, 2, true};
    const std::size_t n = 300'000;
    const auto edges =
        util::random_components_graph(n, n / 1000 + 2, n, 42).first;
    OracleExec exec;
    cgm::cgm_connected_components(exec, n, edges, v);
    ASSERT_EQ(exec.seen.size(), 1u);
    expect_same_plan(shape, exec.seen[0].declared, exec.seen[0].measured);
  }
}

// --- autoconfigure --------------------------------------------------------

TEST(DeclaredRequirements, AutoconfigureNeverBuildsStateForDeclaringProgram) {
  cgm::ListRankingProgram prog;
  prog.n = 1000;
  const std::function<cgm::ListRankingProgram::State(std::uint32_t)> boom =
      [](std::uint32_t) -> cgm::ListRankingProgram::State {
    throw std::logic_error("make_state called");
  };
  sim::SimConfig cfg;
  const auto out = cgm::autoconfigure(cfg, prog, 16, boom);
  EXPECT_EQ(out.mu, prog.requirements(16).mu);
  EXPECT_EQ(out.gamma, prog.requirements(16).gamma);
  EXPECT_EQ(out.machine.bsp.v, 16u);

  cgm::SortProgram<std::uint64_t, std::less<>> sort{500};
  const std::function<decltype(sort)::State(std::uint32_t)> boom_sort =
      [](std::uint32_t) -> decltype(sort)::State {
    throw std::logic_error("make_state called");
  };
  EXPECT_NO_THROW(cgm::autoconfigure(cfg, sort, 8, boom_sort));

  cgm::ComponentsProgram cc;
  cc.n = 100;
  cc.m = 300;
  const std::function<cgm::ComponentsProgram::State(std::uint32_t)> boom_cc =
      [](std::uint32_t) -> cgm::ComponentsProgram::State {
    throw std::logic_error("make_state called");
  };
  EXPECT_NO_THROW(cgm::autoconfigure(cfg, cc, 8, boom_cc));
}

// --- Enforcement ----------------------------------------------------------

/// Under-declaring program.  Superstep 0: every vproc sends `sends` u64
/// values to the first vproc of its half of the machine (so on two real
/// processors each one hosts a receiver) and appends `grow` words to its
/// state.  Superstep 1: receive and stop.  The declaration is whatever the
/// test sets — deliberately too small for one of the three budgets.
struct FanIn {
  bsp::Requirements declared;
  std::uint32_t sends = 1;
  std::uint32_t grow = 0;

  struct State {
    std::vector<std::uint64_t> words;
    void serialize(util::Writer& w) const { w.write_vector(words); }
    void deserialize(util::Reader& r) {
      words = r.read_vector<std::uint64_t>();
    }
  };

  bool superstep(std::size_t step, const bsp::ProcEnv& env, State& s,
                 const bsp::Inbox& in, bsp::Outbox& out) const {
    if (step == 0) {
      const std::uint32_t half = env.nprocs / 2;
      const std::uint32_t dst = env.pid < half ? 0 : half;
      for (std::uint32_t i = 0; i < sends; ++i) {
        out.send_value<std::uint64_t>(dst, env.pid);
      }
      s.words.resize(s.words.size() + grow, env.pid);
      return true;
    }
    for (std::size_t i = 0; i < in.count(); ++i) {
      s.words.push_back(in.value<std::uint64_t>(i));
    }
    return false;
  }

  [[nodiscard]] bsp::Requirements requirements(std::uint32_t) const {
    return declared;
  }
};
static_assert(bsp::DeclaresRequirements<FanIn>);

constexpr std::uint32_t kFanV = 8;
constexpr std::uint64_t kValueWire = sizeof(std::uint64_t) + 32;

sim::SimConfig fan_config(std::uint32_t p) {
  sim::SimConfig cfg;
  cfg.machine.p = p;
  cfg.machine.em = {1u << 20, 2, 4096, 1.0};
  return cfg;
}

struct Case {
  const char* name;
  FanIn prog;
  sim::RequirementError::Budget budget;
};

std::vector<Case> under_declaring_cases() {
  // An empty state serializes to 8 bytes; one received value is 40 wire
  // bytes; a receiver gets kFanV / 2 of them.
  const std::size_t mu_ok = 8 + 8 * (kFanV + 4);
  const std::uint64_t recv = kFanV / 2 * kValueWire;
  return {
      {"received", FanIn{{mu_ok, kValueWire, 2}, 1, 0},
       sim::RequirementError::Budget::gamma_received},
      {"sent", FanIn{{mu_ok, kValueWire, 2}, 2, 0},
       sim::RequirementError::Budget::gamma_sent},
      {"mu", FanIn{{mu_ok, 2 * recv, 2}, 1, kFanV + 8},
       sim::RequirementError::Budget::mu},
      {"exchange", FanIn{{mu_ok, 2 * recv, 2, kFanV / 2 * kValueWire}, 1, 0},
       sim::RequirementError::Budget::exchange},
  };
}

void expect_requirement_error(const std::function<void()>& run,
                              const Case& c, const std::string& sim) {
  try {
    run();
    ADD_FAILURE() << sim << "/" << c.name << ": no error raised";
  } catch (const sim::RequirementError& e) {
    EXPECT_EQ(e.budget(), c.budget) << sim << "/" << c.name;
    EXPECT_GT(e.measured(), e.declared()) << sim << "/" << c.name;
    EXPECT_NE(e.superstep(), sim::RequirementError::kInit);
    EXPECT_NE(std::string(e.what()).find("declared"), std::string::npos);
  }
}

/// Sanity: the declarations really are generous enough for the budgets a
/// case does not target, so the error type is the one under test.
TEST(RequirementEnforcement, CasesAreWellFormed) {
  for (const auto& c : under_declaring_cases()) {
    const auto measured = bsp::measure_requirements(
        c.prog, kFanV,
        std::function<FanIn::State(std::uint32_t)>(
            [](std::uint32_t) { return FanIn::State{}; }));
    using Budget = sim::RequirementError::Budget;
    const auto& declared = c.prog.declared;
    const bool over_mu = measured.mu > declared.mu;
    const bool over_gamma = measured.gamma > declared.gamma;
    const bool over_exchange =
        declared.exchange != 0 && measured.exchange > declared.exchange;
    EXPECT_EQ(over_mu, c.budget == Budget::mu) << c.name;
    EXPECT_EQ(over_gamma, c.budget == Budget::gamma_sent ||
                              c.budget == Budget::gamma_received)
        << c.name;
    EXPECT_EQ(over_exchange, c.budget == Budget::exchange) << c.name;
  }
}

TEST(RequirementEnforcement, SeqAndParRaiseTypedError) {
  const std::function<FanIn::State(std::uint32_t)> make =
      [](std::uint32_t) { return FanIn::State{}; };
  for (const auto& c : under_declaring_cases()) {
    bool collected = false;
    const std::function<void(std::uint32_t, FanIn::State&)> collect =
        [&](std::uint32_t, FanIn::State&) { collected = true; };
    cgm::SeqEmExec seq(fan_config(1));
    expect_requirement_error([&] { seq.run(c.prog, kFanV, make, collect); },
                             c, "seq");
    cgm::ParEmExec par(fan_config(2));
    expect_requirement_error([&] { par.run(c.prog, kFanV, make, collect); },
                             c, "par");
    EXPECT_FALSE(collected) << c.name;
  }
}

TEST(RequirementEnforcement, LoopbackDistRaisesTypedError) {
  const std::function<FanIn::State(std::uint32_t)> make =
      [](std::uint32_t) { return FanIn::State{}; };
  for (const auto& c : under_declaring_cases()) {
    auto group = net::make_loopback_group(2);
    std::vector<std::exception_ptr> errors(2);
    std::atomic<bool> collected{false};
    auto rank = [&](std::uint32_t r) {
      try {
        cgm::DistEmExec exec(fan_config(2), *group[r]);
        exec.run(c.prog, kFanV, make,
                 std::function<void(std::uint32_t, FanIn::State&)>(
                     [&](std::uint32_t, FanIn::State&) { collected = true; }));
      } catch (...) {
        errors[r] = std::current_exception();
      }
    };
    {
      std::jthread peer(rank, 1);
      rank(0);
    }
    EXPECT_FALSE(collected) << c.name;
    // Every rank fails.  A rank whose own vprocs broke the budget raises
    // RequirementError; a rank that learns of it through the transport's
    // abort raises a NetError carrying the same message.
    bool typed = false;
    for (std::uint32_t r = 0; r < 2; ++r) {
      ASSERT_TRUE(errors[r]) << c.name << ": rank " << r << " returned";
      try {
        std::rethrow_exception(errors[r]);
      } catch (const sim::RequirementError& e) {
        typed = true;
        EXPECT_EQ(e.budget(), c.budget) << c.name;
      } catch (const net::NetError& e) {
        EXPECT_NE(std::string(e.what()).find("requirement exceeded"),
                  std::string::npos)
            << c.name << ": " << e.what();
      }
    }
    EXPECT_TRUE(typed) << c.name;
  }
}

}  // namespace
}  // namespace embsp
