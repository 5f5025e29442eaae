// Local kernels of the regular-sampling sort (cgm/sort_kernel.hpp).
//
//  * local_sort radix-sorts unsigned keys under std::less and equals
//    std::stable_sort on every input shape: empty, tiny, all-equal, sorted,
//    reversed, keys that differ only in the top or only in the low byte.
//  * merge_runs equals the left-to-right cascade of stable merges it
//    replaces, ties included: records carry a payload the comparator does
//    not look at, so any change in tie order shows.
//  * Work bound: SortEngine's merge step (superstep 3) makes at most
//    b * ceil(log2 v) + v comparisons for b received records from v
//    sources; the cascade made about b * v / 2.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "bsp/message.hpp"
#include "cgm/sort.hpp"
#include "cgm/sort_kernel.hpp"
#include "util/rng.hpp"
#include "util/serialization.hpp"

namespace embsp::cgm {
namespace {

struct CustomLess {
  bool operator()(std::uint64_t a, std::uint64_t b) const { return a < b; }
};

static_assert(kRadixSortable<std::uint64_t, std::less<>>);
static_assert(kRadixSortable<std::uint32_t, std::less<std::uint32_t>>);
static_assert(!kRadixSortable<std::uint64_t, CustomLess>);
static_assert(!kRadixSortable<std::uint64_t, std::greater<>>);
static_assert(!kRadixSortable<std::int64_t, std::less<>>);
static_assert(!kRadixSortable<bool, std::less<>>);

/// The inputs every parity test runs: sizes 0-2, all-equal, sorted,
/// reversed, random, and keys that differ only in the top or only in the
/// low byte (every other radix pass is skipped).
template <typename Key>
std::vector<std::vector<Key>> radix_inputs() {
  constexpr int kTop = 8 * (sizeof(Key) - 1);
  util::Rng rng(7);
  std::vector<std::vector<Key>> inputs = {
      {}, {Key{5}}, {Key{9}, Key{3}}, std::vector<Key>(1000, Key{42})};
  std::vector<Key> sorted(1000), top(1000), low(1000), random(5000);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    sorted[i] = static_cast<Key>(i * 977);
    top[i] = static_cast<Key>((Key{0x5a} | (rng.next() << kTop)));
    low[i] = static_cast<Key>((Key{0x7f} << kTop) | (rng.next() & 0xff));
  }
  for (auto& k : random) k = static_cast<Key>(rng.next());
  auto reversed = sorted;
  std::reverse(reversed.begin(), reversed.end());
  for (auto* v : {&sorted, &reversed, &top, &low, &random}) {
    inputs.push_back(*v);
  }
  return inputs;
}

template <typename Key>
void expect_radix_matches_stable_sort() {
  for (const auto& input : radix_inputs<Key>()) {
    auto want = input;
    std::stable_sort(want.begin(), want.end());
    auto got = input;
    local_sort(got, std::less<>{});
    EXPECT_EQ(got, want) << "n = " << input.size();
    auto custom = input;
    local_sort(custom, std::less<Key>{});
    EXPECT_EQ(custom, want) << "n = " << input.size();
  }
}

TEST(SortKernel, RadixMatchesStableSortU64) {
  expect_radix_matches_stable_sort<std::uint64_t>();
}

TEST(SortKernel, RadixMatchesStableSortU32) {
  expect_radix_matches_stable_sort<std::uint32_t>();
}

/// A record whose payload the comparator ignores: equal keys are
/// distinguishable, so the tie order is observable.
struct Tagged {
  std::uint32_t key;
  std::uint32_t payload;
  friend bool operator==(const Tagged&, const Tagged&) = default;
};

struct CountingLess {
  std::uint64_t* comparisons;
  bool operator()(const Tagged& a, const Tagged& b) const {
    ++*comparisons;
    return a.key < b.key;
  }
};

/// Sorted runs of Tagged records with keys in [0, key_range); every
/// payload is unique.  `sizes` gives each run's length.
std::vector<std::vector<Tagged>> make_runs(
    const std::vector<std::size_t>& sizes, std::uint32_t key_range,
    std::uint64_t seed) {
  util::Rng rng(seed);
  std::uint32_t payload = 0;
  std::vector<std::vector<Tagged>> runs;
  for (const auto size : sizes) {
    std::vector<Tagged> run(size);
    for (auto& r : run) {
      r = {static_cast<std::uint32_t>(rng.below(key_range)), payload++};
    }
    std::stable_sort(run.begin(), run.end(),
                     [](const Tagged& a, const Tagged& b) {
                       return a.key < b.key;
                     });
    runs.push_back(std::move(run));
  }
  return runs;
}

/// The cascade SortEngine's superstep 3 used to run: append each run and
/// std::inplace_merge it into the prefix.
std::vector<Tagged> cascade_merge(const std::vector<std::vector<Tagged>>& runs,
                                  std::uint64_t* comparisons) {
  std::vector<Tagged> out;
  for (const auto& run : runs) {
    const std::size_t mid = out.size();
    out.insert(out.end(), run.begin(), run.end());
    std::inplace_merge(out.begin(), out.begin() + mid, out.end(),
                       CountingLess{comparisons});
  }
  return out;
}

TEST(SortKernel, MergeRunsMatchesCascadeIncludingTies) {
  const std::vector<std::vector<std::size_t>> shapes = {
      {},
      {17},
      {0, 0, 0},
      {5, 9, 3},
      {40, 0, 12, 0, 0, 33, 7},
      {1, 1, 1, 1, 1, 1, 1, 1, 1},
      {100, 3, 0, 250, 64, 64, 64, 1, 90, 0, 31},
  };
  for (const std::uint32_t key_range : {1u, 4u, 1000u}) {
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      const auto runs = make_runs(shapes[s], key_range, 11 + s);
      std::uint64_t ignored = 0;
      const auto want = cascade_merge(runs, &ignored);
      std::vector<Tagged> data;
      std::vector<std::size_t> bounds{0};
      for (const auto& run : runs) {
        data.insert(data.end(), run.begin(), run.end());
        bounds.push_back(data.size());
      }
      merge_runs(data, bounds, CountingLess{&ignored});
      EXPECT_EQ(data, want) << "shape " << s << ", key range " << key_range;
    }
  }
}

/// SortEngine's superstep 3 on `runs`, delivered as the inbox of processor
/// 0 with run i from source i.  Returns the merged slab.
std::vector<Tagged> engine_merge(const std::vector<std::vector<Tagged>>& runs,
                                 std::uint64_t* comparisons) {
  const auto v = static_cast<std::uint32_t>(runs.size());
  std::vector<bsp::Message> messages;
  for (std::uint32_t src = 0; src < v; ++src) {
    if (runs[src].empty()) continue;  // step 2 sends no empty run
    util::Writer w;
    w.write_vector(runs[src]);
    messages.push_back({src, 0, 0, w.take()});
  }
  const bsp::Inbox in(std::move(messages));
  bsp::Outbox out(0, v);
  bsp::ProcEnv env{0, v, nullptr};
  std::vector<Tagged> data;
  SortEngine<Tagged, CountingLess>::step(3, env, data, in, out,
                                         CountingLess{comparisons});
  EXPECT_TRUE(out.messages().empty());
  return data;
}

TEST(SortKernel, MergeStepMeetsLocalWorkBound) {
  for (const std::uint32_t v : {2u, 7u, 64u}) {
    util::Rng rng(v);
    std::vector<std::size_t> sizes(v);
    for (auto& s : sizes) s = 1500 + rng.below(1000);
    sizes[v / 2] = 0;
    const auto runs = make_runs(sizes, 1u << 20, v);
    std::uint64_t b = 0;
    for (const auto s : sizes) b += s;

    std::uint64_t merged = 0;
    std::uint64_t cascaded = 0;
    const auto got = engine_merge(runs, &merged);
    EXPECT_EQ(got, cascade_merge(runs, &cascaded)) << "v = " << v;

    const std::uint64_t log_v = std::bit_width(v - 1u);  // ceil(log2 v)
    const std::uint64_t bound = b * log_v + v;
    EXPECT_LE(merged, bound) << "v = " << v;
    // The bound separates the two merges once v is past a handful of runs.
    if (v >= 64) {
      EXPECT_GT(cascaded, bound) << "v = " << v;
    }
  }
}

}  // namespace
}  // namespace embsp::cgm
