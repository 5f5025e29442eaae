// Local kernels of the regular-sampling sort (SortEngine, cgm/sort.hpp).
//
// Table 1 charges each virtual processor O((n/v) log n) local work.  The
// two local phases that dominate it are the initial sort of the slab
// (superstep 0) and the merge of the v received runs (superstep 3):
//
//  * local_sort — an LSD radix sort (8-bit digits, one scratch buffer of
//    the slab's size, passes whose digit is constant skipped) when the
//    record is an unsigned integer ordered by std::less; std::stable_sort
//    otherwise.  Under std::less equal keys are identical values, so the
//    bytes equal stable_sort's.
//  * merge_runs — pairwise two-way merges through a ping-pong buffer,
//    ceil(log2 runs) passes of at most b comparisons each for b records.
//    A merge takes the left run's element on ties, so the result is the
//    stable order a left-to-right cascade of merges produces, for every
//    record type.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace embsp::cgm {

/// True when local_sort may radix-sort: an unsigned integral record under
/// its natural order.
template <typename Rec, typename Less>
inline constexpr bool kRadixSortable =
    std::is_integral_v<Rec> && std::is_unsigned_v<Rec> &&
    !std::is_same_v<Rec, bool> &&
    (std::is_same_v<Less, std::less<>> ||
     std::is_same_v<Less, std::less<Rec>>);

/// LSD radix sort of unsigned keys, ascending.  `scratch` is resized to
/// data.size(); the sorted keys end up in `data` (the two may be swapped).
template <typename Key>
  requires(std::is_integral_v<Key> && std::is_unsigned_v<Key>)
void radix_sort(std::vector<Key>& data, std::vector<Key>& scratch) {
  constexpr std::size_t kDigits = sizeof(Key);
  const std::size_t n = data.size();
  if (n < 2) return;
  std::array<std::array<std::size_t, 256>, kDigits> count{};
  for (const Key k : data) {
    for (std::size_t d = 0; d < kDigits; ++d) {
      ++count[d][static_cast<std::size_t>(k >> (8 * d)) & 0xff];
    }
  }
  scratch.resize(n);
  for (std::size_t d = 0; d < kDigits; ++d) {
    auto& c = count[d];
    // One bucket holds every key: this digit is the same for all of them.
    if (c[static_cast<std::size_t>(data[0] >> (8 * d)) & 0xff] == n) {
      continue;
    }
    std::size_t sum = 0;
    for (auto& x : c) sum += std::exchange(x, sum);
    for (const Key k : data) {
      scratch[c[static_cast<std::size_t>(k >> (8 * d)) & 0xff]++] = k;
    }
    data.swap(scratch);
  }
}

/// Sorts `data` under `less`, stably: radix sort for kRadixSortable
/// records, std::stable_sort otherwise.
template <typename Rec, typename Less>
void local_sort(std::vector<Rec>& data, Less less) {
  if constexpr (kRadixSortable<Rec, Less>) {
    std::vector<Rec> scratch;
    radix_sort(data, scratch);
  } else {
    std::stable_sort(data.begin(), data.end(), less);
  }
}

/// std::merge's result (the left record on ties) with at most as many
/// comparisons, written so that the choice of input is a select rather
/// than a branch: on random keys std::merge's branch mispredicts about
/// every other record, which made it no faster than the cascade it
/// replaces at v = 64.
template <typename It, typename Out, typename Less>
Out merge_pair(It a, It a_end, It b, It b_end, Out out, Less less) {
  while (a != a_end && b != b_end) {
    const bool right = less(*b, *a);
    *out = right ? *b : *a;
    ++out;
    b += right;
    a += !right;
  }
  out = std::copy(a, a_end, out);
  return std::copy(b, b_end, out);
}

/// Merges the sorted runs data[bounds[i], bounds[i+1]) into one sorted
/// sequence in `data`.  `bounds` starts at 0 and ends at data.size(); it is
/// consumed.  Ties keep run order, then position within the run.
template <typename Rec, typename Less>
void merge_runs(std::vector<Rec>& data, std::vector<std::size_t>& bounds,
                Less less) {
  // Empty runs change nothing but the pass count.
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  if (bounds.size() <= 2) return;
  std::vector<Rec> scratch(data.size());
  while (bounds.size() > 2) {
    const std::size_t runs = bounds.size() - 1;
    std::size_t kept = 0;
    for (std::size_t r = 0; r < runs; r += 2) {
      const auto first = data.begin() + bounds[r];
      const auto mid = data.begin() + bounds[r + 1];
      const auto out = scratch.begin() + bounds[r];
      if (r + 1 < runs) {
        merge_pair(first, mid, mid, data.begin() + bounds[r + 2], out, less);
      } else {
        std::copy(first, mid, out);
      }
      bounds[kept++] = bounds[r];
    }
    bounds[kept++] = bounds.back();
    bounds.resize(kept);
    data.swap(scratch);
  }
}

}  // namespace embsp::cgm
