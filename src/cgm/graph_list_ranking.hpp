// CGM list ranking (Table 1, Group C) by randomized independent-set
// contraction — the Cáceres et al. [11] recipe the paper cites:
//
//   contraction round (5 supersteps): every active node u whose coin is
//   heads and whose successor s has tails splices s out of the list
//   (succ(u) <- succ(s), weights accumulate); ~1/4 of the nodes disappear
//   per round, so O(log v) rounds reach <= max(2n/v, 64) survivors;
//
//   gather (3 supersteps): survivors are collected at processor 0, ranked
//   sequentially, and the ranks scattered back;
//
//   expansion (3 supersteps per round, reverse order): a node spliced in
//   round r computes rank(u) = w(u) + rank(frozen successor); the frozen
//   successor's rank is final by then because it survived round r.
//
// Ranks are weighted suffix sums along the list: rank(u) = w(u) if u is a
// tail, else w(u) + rank(succ(u)).  Two independent weight channels are
// ranked simultaneously (channel 2 in two's-complement) — the Euler tour
// module uses them for tour positions and depths in a single pass.
#pragma once

#include <vector>

#include "bsp/program.hpp"
#include "cgm/runner.hpp"

namespace embsp::cgm {

struct ListRankingProgram {
  std::uint64_t n = 0;
  std::uint64_t seed = 0x715EEDULL;
  std::uint64_t gather_threshold = 0;  ///< 0 = max(2*ceil(n/v), 64)

  static std::uint8_t coin(std::uint64_t node, std::uint32_t round,
                           std::uint64_t seed) {
    std::uint64_t z = node * 0x9e3779b97f4a7c15ULL + round + seed;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::uint8_t>((z ^ (z >> 31)) & 1);
  }

  enum Phase : std::uint8_t { kContract = 0, kGather = 1, kExpand = 2,
                              kDone = 3 };
  enum Status : std::uint8_t { kActive = 0, kSpliced = 1, kFinal = 2 };

  struct Query {
    std::uint64_t s;
    std::uint64_t u;
  };
  struct Reply {
    std::uint64_t u;
    std::uint64_t s_succ;
    std::uint64_t s_w1;
    std::uint64_t s_w2;
    std::uint8_t s_is_tail;
    std::uint8_t pad[7];
  };
  struct GatherNode {
    std::uint64_t id;
    std::uint64_t succ;
    std::uint64_t w1;
    std::uint64_t w2;
  };
  struct RankMsg {
    std::uint64_t id;
    std::uint64_t r1;
    std::uint64_t r2;
  };

  struct State {
    std::vector<std::uint64_t> succ, w1, w2, rank1, rank2;
    std::vector<std::uint8_t> status;
    std::vector<std::uint32_t> splice_round;
    std::uint8_t phase = kContract;
    std::uint8_t sub = 0;
    std::uint32_t round = 0;
    std::uint32_t total_rounds = 0;
    std::uint32_t expand_round = 0;

    void serialize(util::Writer& w) const {
      w.write_vector(succ);
      w.write_vector(w1);
      w.write_vector(w2);
      w.write_vector(rank1);
      w.write_vector(rank2);
      w.write_vector(status);
      w.write_vector(splice_round);
      w.write(phase);
      w.write(sub);
      w.write(round);
      w.write(total_rounds);
      w.write(expand_round);
    }
    void deserialize(util::Reader& r) {
      succ = r.read_vector<std::uint64_t>();
      w1 = r.read_vector<std::uint64_t>();
      w2 = r.read_vector<std::uint64_t>();
      rank1 = r.read_vector<std::uint64_t>();
      rank2 = r.read_vector<std::uint64_t>();
      status = r.read_vector<std::uint8_t>();
      splice_round = r.read_vector<std::uint32_t>();
      phase = r.read<std::uint8_t>();
      sub = r.read<std::uint8_t>();
      round = r.read<std::uint32_t>();
      total_rounds = r.read<std::uint32_t>();
      expand_round = r.read<std::uint32_t>();
    }
  };

  bool superstep(std::size_t, const bsp::ProcEnv& env, State& s,
                 const bsp::Inbox& in, bsp::Outbox& out) const;

  /// Declared bounds for n nodes over v processors (c = ceil(n/v) per
  /// processor).  Contexts never grow, so mu is exact.  Every node has at
  /// most one predecessor, so no processor receives more than c queries,
  /// replies or splice notices per superstep; processor 0 gathers at most
  /// the resolved gather threshold of survivors.  lambda is left 0: the
  /// number of contraction rounds is randomized.
  [[nodiscard]] bsp::Requirements requirements(std::uint32_t v) const;

  // Implementation helpers (header-defined below to keep the program
  // self-contained for all executors).
 private:
  /// Survivor count at or below which the contraction stops and gathers.
  [[nodiscard]] std::uint64_t resolved_gather_threshold(
      std::uint64_t chunk) const {
    return gather_threshold != 0 ? gather_threshold
                                 : std::max<std::uint64_t>(2 * chunk, 64);
  }
  bool contract_step(const bsp::ProcEnv& env, State& s, const bsp::Inbox& in,
                     bsp::Outbox& out) const;
  bool gather_step(const bsp::ProcEnv& env, State& s, const bsp::Inbox& in,
                   bsp::Outbox& out) const;
  bool expand_step(const bsp::ProcEnv& env, State& s, const bsp::Inbox& in,
                   bsp::Outbox& out) const;
};

struct ListRankingOutcome {
  std::vector<std::uint64_t> rank1;
  std::vector<std::uint64_t> rank2;
  ExecResult exec;
};

/// Weighted list ranking: rank(u) = suffix sum of weights from u to the
/// tail of its list (inclusive).  Channel 2 may hold two's-complement
/// signed weights.
template <class Exec>
ListRankingOutcome cgm_list_ranking_weighted(
    Exec& exec, std::span<const std::uint64_t> succ,
    std::span<const std::uint64_t> w1, std::span<const std::uint64_t> w2,
    std::uint32_t v, std::uint64_t seed = 0x715EEDULL) {
  ListRankingProgram prog;
  prog.n = succ.size();
  prog.seed = seed;
  using State = ListRankingProgram::State;
  BlockDist dist{succ.size(), v};
  ListRankingOutcome outcome;
  outcome.rank1.assign(succ.size(), 0);
  outcome.rank2.assign(succ.size(), 0);
  outcome.exec = exec.run(
      prog, v,
      std::function<State(std::uint32_t)>([&](std::uint32_t pid) {
        State s;
        const auto first = dist.first(pid);
        const auto count = dist.count(pid);
        s.succ.assign(succ.begin() + first, succ.begin() + first + count);
        s.w1.assign(w1.begin() + first, w1.begin() + first + count);
        s.w2.assign(w2.begin() + first, w2.begin() + first + count);
        s.rank1.assign(count, 0);
        s.rank2.assign(count, 0);
        s.status.assign(count, ListRankingProgram::kActive);
        s.splice_round.assign(count, UINT32_MAX);
        return s;
      }),
      std::function<void(std::uint32_t, State&)>(
          [&](std::uint32_t pid, State& s) {
            const auto first = dist.first(pid);
            for (std::size_t i = 0; i < s.rank1.size(); ++i) {
              outcome.rank1[first + i] = s.rank1[i];
              outcome.rank2[first + i] = s.rank2[i];
            }
          }));
  return outcome;
}

/// Unweighted convenience: rank(u) = number of hops from u to the tail —
/// identical semantics to baseline::em_list_ranking.
template <class Exec>
ListRankingOutcome cgm_list_ranking(Exec& exec,
                                    std::span<const std::uint64_t> succ,
                                    std::uint32_t v,
                                    std::uint64_t seed = 0x715EEDULL) {
  std::vector<std::uint64_t> w1(succ.size()), w2(succ.size(), 0);
  for (std::size_t i = 0; i < succ.size(); ++i) {
    w1[i] = succ[i] == i ? 0 : 1;
  }
  return cgm_list_ranking_weighted(exec, succ, w1, w2, v, seed);
}

}  // namespace embsp::cgm
