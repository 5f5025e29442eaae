// Group A algorithms (sort / permutation / transpose) across all three
// executors, with parameterized sweeps over machine shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "cgm/permutation.hpp"
#include "cgm/primitives.hpp"
#include "cgm/sort.hpp"
#include "cgm/transpose.hpp"
#include "sim/trace.hpp"

#include <sstream>
#include "util/workloads.hpp"

namespace embsp::cgm {
namespace {

struct KeyLess {
  bool operator()(std::uint64_t a, std::uint64_t b) const { return a < b; }
};

sim::SimConfig em_config(std::uint32_t p, std::size_t D, std::size_t B) {
  sim::SimConfig cfg;
  cfg.machine.p = p;
  cfg.machine.em.D = D;
  cfg.machine.em.B = B;
  cfg.machine.em.M = 1 << 22;
  return cfg;
}

TEST(CgmSort, DirectSmall) {
  auto keys = util::random_keys(500, 1);
  DirectExec exec;
  auto out = cgm_sort<std::uint64_t, KeyLess>(exec, keys, 8);
  auto want = keys;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(out.sorted, want);
  EXPECT_EQ(out.exec.lambda, 4u);
}

TEST(CgmSort, HandlesDuplicatesAndSortedInputs) {
  DirectExec exec;
  std::vector<std::uint64_t> dup(300, 7);
  for (std::size_t i = 0; i < dup.size(); i += 3) dup[i] = 3;
  auto out = cgm_sort<std::uint64_t, KeyLess>(exec, dup, 6);
  auto want = dup;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(out.sorted, want);

  std::vector<std::uint64_t> sorted(256);
  std::iota(sorted.begin(), sorted.end(), 0u);
  EXPECT_EQ((cgm_sort<std::uint64_t, KeyLess>(exec, sorted, 8).sorted), sorted);

  auto reversed = sorted;
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_EQ((cgm_sort<std::uint64_t, KeyLess>(exec, reversed, 8).sorted),
            sorted);
}

TEST(CgmSort, SingleProcessorAndTinyInputs) {
  DirectExec exec;
  auto keys = util::random_keys(40, 2);
  auto want = keys;
  std::sort(want.begin(), want.end());
  EXPECT_EQ((cgm_sort<std::uint64_t, KeyLess>(exec, keys, 1).sorted), want);
  // More processors than records.
  auto few = util::random_keys(5, 3);
  auto want_few = few;
  std::sort(want_few.begin(), want_few.end());
  EXPECT_EQ((cgm_sort<std::uint64_t, KeyLess>(exec, few, 8).sorted), want_few);
  // Empty input.
  EXPECT_TRUE((cgm_sort<std::uint64_t, KeyLess>(
                   exec, std::span<const std::uint64_t>{}, 4))
                  .sorted.empty());
}

TEST(CgmSort, RegularSamplingBalances) {
  auto keys = util::random_keys(4096, 4);
  DirectExec exec;
  auto out = cgm_sort<std::uint64_t, KeyLess>(exec, keys, 16);
  for (auto sz : out.slab_sizes) {
    EXPECT_LT(sz, 2 * 4096 / 16 + 64);  // regular sampling bound ~2n/v
  }
}

struct SortSweepParam {
  std::uint32_t p;
  std::uint32_t v;
  std::size_t D;
  std::size_t B;
  std::size_t n;
};

class CgmSortEmSweep : public ::testing::TestWithParam<SortSweepParam> {};

TEST_P(CgmSortEmSweep, MatchesStdSortOnEmMachines) {
  const auto prm = GetParam();
  // Random keys, then all-equal keys: every splitter repeats, the input
  // that needs the sort's tie-breaking to stay within its declared mu.
  const std::vector<std::vector<std::uint64_t>> inputs = {
      util::random_keys(prm.n, 17 + prm.n),
      std::vector<std::uint64_t>(prm.n, 7)};
  for (const auto& keys : inputs) {
    auto want = keys;
    std::stable_sort(want.begin(), want.end());

    if (prm.p == 1) {
      SeqEmExec exec(em_config(1, prm.D, prm.B));
      auto out = cgm_sort<std::uint64_t, KeyLess>(exec, keys, prm.v);
      EXPECT_EQ(out.sorted, want);
      EXPECT_EQ(out.exec.lambda, 4u);
      ASSERT_TRUE(out.exec.sim.has_value());
      EXPECT_GT(out.exec.sim->total_io.parallel_ios, 0u);
    } else {
      ParEmExec exec(em_config(prm.p, prm.D, prm.B));
      auto out = cgm_sort<std::uint64_t, KeyLess>(exec, keys, prm.v);
      EXPECT_EQ(out.sorted, want);
      EXPECT_EQ(out.exec.lambda, 4u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MachineShapes, CgmSortEmSweep,
    ::testing::Values(SortSweepParam{1, 8, 1, 128, 1000},
                      SortSweepParam{1, 8, 4, 128, 1000},
                      SortSweepParam{1, 16, 2, 256, 2000},
                      SortSweepParam{1, 4, 8, 64, 500},
                      SortSweepParam{2, 8, 2, 128, 1000},
                      SortSweepParam{4, 16, 2, 128, 2000},
                      SortSweepParam{4, 8, 4, 256, 1500}),
    [](const auto& info) {
      const auto& q = info.param;
      return "p" + std::to_string(q.p) + "v" + std::to_string(q.v) + "D" +
             std::to_string(q.D) + "B" + std::to_string(q.B) + "n" +
             std::to_string(q.n);
    });

TEST(CgmPermutation, AppliesPermutation) {
  const std::size_t n = 1000;
  auto values = util::random_keys(n, 5);
  auto perm = util::random_permutation(n, 6);
  DirectExec exec;
  auto out = cgm_permute(exec, values, perm, 8);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out.values[perm[i]], values[i]);
  }
  EXPECT_EQ(out.exec.lambda, 2u);
}

TEST(CgmPermutation, IdentityAndReversal) {
  const std::size_t n = 128;
  auto values = util::random_keys(n, 7);
  std::vector<std::uint64_t> ident(n), rev(n);
  std::iota(ident.begin(), ident.end(), 0u);
  for (std::size_t i = 0; i < n; ++i) rev[i] = n - 1 - i;
  DirectExec exec;
  EXPECT_EQ(cgm_permute(exec, values, ident, 4).values, values);
  auto out = cgm_permute(exec, values, rev, 4);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out.values[n - 1 - i],
                                                values[i]);
}

TEST(CgmPermutation, OnEmMachine) {
  const std::size_t n = 2000;
  auto values = util::random_keys(n, 8);
  auto perm = util::random_permutation(n, 9);
  SeqEmExec exec(em_config(1, 4, 128));
  auto out = cgm_permute(exec, values, perm, 16);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out.values[perm[i]], values[i]);
  }
}

TEST(CgmPermutation, OnParallelEmMachine) {
  const std::size_t n = 1200;
  auto values = util::random_keys(n, 10);
  auto perm = util::random_permutation(n, 11);
  ParEmExec exec(em_config(4, 2, 128));
  auto out = cgm_permute(exec, values, perm, 16);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out.values[perm[i]], values[i]);
  }
}

std::vector<std::uint64_t> reference_transpose(
    std::span<const std::uint64_t> m, std::uint64_t r, std::uint64_t c) {
  std::vector<std::uint64_t> t(r * c);
  for (std::uint64_t i = 0; i < r; ++i) {
    for (std::uint64_t j = 0; j < c; ++j) {
      t[j * r + i] = m[i * c + j];
    }
  }
  return t;
}

TEST(CgmTranspose, SquareMatrix) {
  const std::uint64_t r = 32, c = 32;
  auto m = util::random_keys(r * c, 12);
  DirectExec exec;
  auto out = cgm_transpose(exec, m, r, c, 8);
  EXPECT_EQ(out.data, reference_transpose(m, r, c));
  EXPECT_EQ(out.exec.lambda, 2u);
}

TEST(CgmTranspose, RectangularMatrices) {
  DirectExec exec;
  for (auto [r, c] : {std::pair<std::uint64_t, std::uint64_t>{5, 40},
                      {40, 5},
                      {1, 64},
                      {64, 1},
                      {7, 13}}) {
    auto m = util::random_keys(r * c, 13 + r);
    auto out = cgm_transpose(exec, m, r, c, 4);
    EXPECT_EQ(out.data, reference_transpose(m, r, c)) << r << "x" << c;
  }
}

TEST(CgmTranspose, DoubleTransposeIsIdentity) {
  const std::uint64_t r = 24, c = 56;
  auto m = util::random_keys(r * c, 14);
  DirectExec exec;
  auto once = cgm_transpose(exec, m, r, c, 8);
  auto twice = cgm_transpose(exec, once.data, c, r, 8);
  EXPECT_EQ(twice.data, m);
}

TEST(CgmTranspose, OnEmMachine) {
  const std::uint64_t r = 48, c = 32;
  auto m = util::random_keys(r * c, 15);
  SeqEmExec exec(em_config(1, 4, 128));
  auto out = cgm_transpose(exec, m, r, c, 8);
  EXPECT_EQ(out.data, reference_transpose(m, r, c));
}

TEST(CgmTranspose, OnParallelEmMachine) {
  const std::uint64_t r = 40, c = 30;
  auto m = util::random_keys(r * c, 16);
  ParEmExec exec(em_config(2, 2, 128));
  auto out = cgm_transpose(exec, m, r, c, 8);
  EXPECT_EQ(out.data, reference_transpose(m, r, c));
}

TEST(CostTrace, CsvHasOneRowPerSuperstep) {
  auto keys = util::random_keys(2000, 77);
  SeqEmExec exec(em_config(1, 2, 256));
  auto out = cgm_sort<std::uint64_t, KeyLess>(exec, keys, 8);
  std::ostringstream csv;
  sim::write_cost_csv(csv, *out.exec.sim);
  std::size_t lines = 0;
  for (char c : csv.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 1 + out.exec.lambda);  // header + one row per superstep
  EXPECT_NE(csv.str().find("parallel_ios"), std::string::npos);
}

TEST(CgmSortStress, LargeInputAcrossExecutors) {
  // A larger integration run: 2^19 keys through the parallel EM simulator.
  const std::size_t n = 1 << 19;
  auto keys = util::random_keys(n, 1234);
  ParEmExec exec(em_config(4, 4, 4096));
  auto out = cgm_sort<std::uint64_t, KeyLess>(exec, keys, 64);
  EXPECT_TRUE(std::is_sorted(out.sorted.begin(), out.sorted.end()));
  EXPECT_EQ(out.sorted.size(), n);
  EXPECT_EQ(out.exec.lambda, 4u);
}

TEST(Primitives, FenwickPrefixSums) {
  Fenwick f(10);
  f.add(0, 5);
  f.add(3, 2);
  f.add(9, 7);
  EXPECT_EQ(f.prefix(0), 0u);
  EXPECT_EQ(f.prefix(1), 5u);
  EXPECT_EQ(f.prefix(4), 7u);
  EXPECT_EQ(f.prefix(10), 14u);
}

}  // namespace
}  // namespace embsp::cgm
