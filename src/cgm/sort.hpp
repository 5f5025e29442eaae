// CGM sorting by deterministic regular sampling (Table 1, Group A).
//
// The classic one-round-of-routing sample sort ([21] in the paper's
// numbering; Goodrich's communication-efficient sorting is its
// asymptotically refined cousin):
//   superstep 0: sort locally, pick v evenly spaced samples, send to proc 0
//   superstep 1: proc 0 sorts the v^2 samples, broadcasts v-1 splitters
//   superstep 2: partition the (locally sorted) data by splitter, route
//                partition i to processor i
//   superstep 3: merge the received sorted runs
// lambda = O(1) supersteps.  With regular sampling no processor receives
// more than 2*ceil(n/v) records when every processor starts with at most
// ceil(n/v), on every input: records are partitioned in the total order
// (key, source processor, local index), so keys equal to a splitter are
// spread over the buckets the way distinct keys would be (the tagging
// device Gerbessiotis & Siniolakis use for duplicate keys).  The tags
// travel only when a splitter's key repeats among the samples; otherwise
// partitioning by key alone already obeys the bound, and the messages are
// those of the untagged algorithm.
//
// SortEngine is the embeddable state machine; several Group B/C algorithms
// run it as a sub-phase of their own superstep programs.
#pragma once

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "bsp/program.hpp"
#include "cgm/runner.hpp"
#include "cgm/sort_kernel.hpp"

namespace embsp::cgm {

template <typename Rec, typename Less>
struct SortEngine {
  static constexpr std::size_t kSteps = 4;

  /// Where a sample came from: its processor and its index among that
  /// processor's v samples (sample j is the record at local index
  /// j * size / v of the locally sorted data).
  struct SampleOrigin {
    std::uint32_t src;
    std::uint32_t sample;
  };

  /// One engine step.  `local_step` counts from 0; the engine consumes the
  /// inbox produced by its previous step, so the caller must route steps
  /// 0..3 to four consecutive supersteps.  `data` is sorted in place /
  /// replaced by this processor's slab of the global order.
  static void step(std::size_t local_step, const bsp::ProcEnv& env,
                   std::vector<Rec>& data, const bsp::Inbox& in,
                   bsp::Outbox& out, Less less) {
    const std::uint32_t v = env.nprocs;
    switch (local_step) {
      case 0: {
        local_sort(data, less);
        env.charge(data.size() ? data.size() * 8 : 1);
        std::vector<Rec> samples;
        samples.reserve(v);
        for (std::uint32_t j = 0; j < v && !data.empty(); ++j) {
          samples.push_back(data[j * data.size() / v]);
        }
        out.send_vector(0, samples);
        break;
      }
      case 1: {
        if (env.pid == 0) {
          std::vector<Rec> samples;
          std::vector<SampleOrigin> origin;  // origin[i] of samples[i]
          for (std::size_t i = 0; i < in.count(); ++i) {
            auto part = in.vector<Rec>(i);
            for (std::uint32_t j = 0; j < part.size(); ++j) {
              origin.push_back(SampleOrigin{in.all()[i].src, j});
            }
            samples.insert(samples.end(), part.begin(), part.end());
          }
          // Sorting a permutation keeps each sample's origin; stable, so
          // equal samples stay in (src, sample) order — the total order
          // the tags stand for.
          std::vector<std::uint32_t> order(samples.size());
          std::iota(order.begin(), order.end(), 0u);
          std::stable_sort(order.begin(), order.end(),
                           [&](std::uint32_t a, std::uint32_t b) {
                             return less(samples[a], samples[b]);
                           });
          env.charge(samples.size() * 8 + 1);
          const auto same_key = [&](std::size_t a, std::size_t b) {
            return !less(samples[order[a]], samples[order[b]]) &&
                   !less(samples[order[b]], samples[order[a]]);
          };
          std::vector<Rec> splitters;
          std::vector<SampleOrigin> tags;
          bool key_repeats = false;
          if (!samples.empty()) {
            for (std::uint32_t i = 1; i < v; ++i) {
              const std::size_t r =
                  std::min(samples.size() - 1, i * samples.size() / v);
              splitters.push_back(samples[order[r]]);
              tags.push_back(origin[order[r]]);
              key_repeats = key_repeats || (r > 0 && same_key(r - 1, r)) ||
                            (r + 1 < samples.size() && same_key(r, r + 1));
            }
          }
          for (std::uint32_t q = 0; q < v; ++q) {
            out.send_vector(q, splitters);
            if (key_repeats) out.send_vector(q, tags);
          }
        }
        break;
      }
      case 2: {
        const auto splitters = in.vector<Rec>(0);
        // Tags arrive only when a splitter key repeats among the samples.
        const auto tags = in.count() > 1 ? in.vector<SampleOrigin>(1)
                                         : std::vector<SampleOrigin>{};
        env.charge(data.size() + 1);
        // data is sorted; destination slabs are contiguous runs.  Run q
        // ends after the last record r <= splitters[q]: by key alone when
        // untagged, else in the (key, src, local index) order, where the
        // splitter is the record its tag names.
        const auto first_after = [&](std::size_t begin, const Rec& s) {
          return static_cast<std::size_t>(
              std::upper_bound(data.begin() + begin, data.end(), s, less) -
              data.begin());
        };
        const auto first_not_before = [&](std::size_t begin, const Rec& s) {
          return static_cast<std::size_t>(
              std::lower_bound(data.begin() + begin, data.end(), s, less) -
              data.begin());
        };
        std::size_t begin = 0;
        for (std::uint32_t q = 0; q < v; ++q) {
          std::size_t end;
          if (q >= splitters.size()) {
            end = data.size();
          } else if (tags.empty() || env.pid < tags[q].src) {
            end = first_after(begin, splitters[q]);
          } else if (env.pid > tags[q].src) {
            end = first_not_before(begin, splitters[q]);
          } else {
            end = static_cast<std::size_t>(tags[q].sample) * data.size() / v +
                  1;
          }
          if (end > begin) {
            out.send_vector(
                q, std::span<const Rec>(data).subspan(begin, end - begin));
          }
          begin = end;
        }
        data.clear();
        break;
      }
      case 3: {
        // Runs arrive sorted per source and the inbox is (src, seq)-sorted;
        // append them and merge pairwise (ties in source order).
        data.clear();
        data.reserve(in.total_bytes() / sizeof(Rec));
        std::vector<std::size_t> bounds{0};
        for (std::size_t i = 0; i < in.count(); ++i) {
          in.append_vector(i, data);
          bounds.push_back(data.size());
        }
        merge_runs(data, bounds, less);
        env.charge(data.size() * 4 + 1);
        break;
      }
      default:
        break;
    }
  }
};

/// Standalone sorting program: four supersteps of SortEngine.
template <typename Rec, typename Less>
struct SortProgram {
  /// n is the total record count requirements() is sized by; there is no
  /// default, so a program cannot declare bounds for an unknown input.
  explicit SortProgram(std::uint64_t n, Less less = Less{})
      : less(less), n(n) {}

  Less less;
  std::uint64_t n;

  struct State {
    std::vector<Rec> data;
    void serialize(util::Writer& w) const { w.write_vector(data); }
    void deserialize(util::Reader& r) { data = r.read_vector<Rec>(); }
  };

  bool superstep(std::size_t step, const bsp::ProcEnv& env, State& s,
                 const bsp::Inbox& in, bsp::Outbox& out) const {
    SortEngine<Rec, Less>::step(step, env, s.data, in, out, less);
    return step + 1 < SortEngine<Rec, Less>::kSteps;
  }

  /// Declared bounds for n records block-distributed over v processors
  /// (each starts with at most c = ceil(n/v)).  A processor holds at most
  /// b = min(2c, n) records after the routing step; gamma is the largest
  /// of the four supersteps' per-processor traffic, exchange the largest
  /// total (see DESIGN.md, "Declared requirements").
  [[nodiscard]] bsp::Requirements requirements(std::uint32_t v) const {
    using Origin = typename SortEngine<Rec, Less>::SampleOrigin;
    const std::uint64_t c = BlockDist{n, v}.chunk();
    const std::uint64_t b = std::min(2 * c, n);
    const std::uint64_t holders = std::min<std::uint64_t>(v, n);
    const std::uint64_t samples = n == 0 ? 0 : v;  // per holder
    const std::uint64_t splitters = n == 0 ? 0 : v - 1;
    const std::uint64_t gamma = std::max({
        // 0: samples to processor 0 (one message, empty when no records)
        bsp::vector_wire_bytes(samples, sizeof(Rec), 1),
        // 1: processor 0 receives one sample message per processor ...
        bsp::vector_wire_bytes(holders * samples, sizeof(Rec), v),
        // ... and sends everyone the splitters and, on repeats, their tags
        v * (bsp::vector_wire_bytes(splitters, sizeof(Rec), 1) +
             bsp::vector_wire_bytes(splitters, sizeof(Origin), 1)),
        // 2: runs sent, at most one per destination
        bsp::vector_wire_bytes(c, sizeof(Rec), std::min<std::uint64_t>(v, c)),
        // 3: runs received, at most one per record holder
        bsp::vector_wire_bytes(b, sizeof(Rec), std::min(holders, b)),
    });
    // Totals: processor 0's broadcast is already one, and the samples and
    // the runs are gamma's terms summed over all processors.  For small n
    // the broadcast dominates gamma, far above an average processor.
    const std::uint64_t exchange = std::max({
        bsp::vector_wire_bytes(holders * samples, sizeof(Rec), v),
        v * (bsp::vector_wire_bytes(splitters, sizeof(Rec), 1) +
             bsp::vector_wire_bytes(splitters, sizeof(Origin), 1)),
        bsp::vector_wire_bytes(
            n, sizeof(Rec), std::min(static_cast<std::uint64_t>(v) * v, n)),
    });
    const std::size_t mu = sizeof(std::uint64_t) + b * sizeof(Rec);
    return bsp::Requirements{mu, gamma, SortEngine<Rec, Less>::kSteps,
                             exchange};
  }
};

template <typename Rec>
struct SortOutcome {
  std::vector<Rec> sorted;             ///< global order, concatenated slabs
  std::vector<std::uint64_t> slab_sizes;  ///< records per processor
  ExecResult exec;
};

/// Driver: block-distributes `input` over v virtual processors, runs the
/// sort program on `exec`, gathers the slabs in processor order.
template <typename Rec, typename Less, class Exec>
SortOutcome<Rec> cgm_sort(Exec& exec, std::span<const Rec> input,
                          std::uint32_t v, Less less = Less{}) {
  SortProgram<Rec, Less> prog{input.size(), less};
  using State = typename SortProgram<Rec, Less>::State;
  BlockDist dist{input.size(), v};
  SortOutcome<Rec> outcome;
  std::vector<std::vector<Rec>> slabs(v);
  outcome.exec = exec.run(
      prog, v,
      std::function<State(std::uint32_t)>([&](std::uint32_t pid) {
        State s;
        const auto first = dist.first(pid);
        const auto count = dist.count(pid);
        s.data.assign(input.begin() + first, input.begin() + first + count);
        return s;
      }),
      std::function<void(std::uint32_t, State&)>(
          [&](std::uint32_t pid, State& s) {
            slabs[pid] = std::move(s.data);
          }));
  // Concatenate into storage sized once, freeing each slab as it is
  // appended: peak residency stays at about two copies of the data.
  outcome.sorted.reserve(input.size());
  for (std::uint32_t q = 0; q < v; ++q) {
    outcome.slab_sizes.push_back(slabs[q].size());
    outcome.sorted.insert(outcome.sorted.end(), slabs[q].begin(),
                          slabs[q].end());
    std::vector<Rec>().swap(slabs[q]);
  }
  return outcome;
}

}  // namespace embsp::cgm
