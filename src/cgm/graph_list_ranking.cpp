#include "cgm/graph_list_ranking.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace embsp::cgm {

bsp::Requirements ListRankingProgram::requirements(std::uint32_t v) const {
  const std::uint64_t c = BlockDist{n, v}.chunk();
  // Survivors processor 0 gathers: the contraction stops at or below the
  // threshold.
  const std::uint64_t g = std::min(resolved_gather_threshold(c), n);
  const auto spread = [v](std::uint64_t records, std::uint64_t bytes) {
    return bsp::vector_wire_bytes(records, bytes,
                                  std::min<std::uint64_t>(v, records));
  };
  // State: seven length-prefixed vectors of c entries (five u64, one u8,
  // one u32), then phase, sub and three u32 round counters.
  const std::size_t mu = 7 * sizeof(std::uint64_t) +
                         c * (5 * sizeof(std::uint64_t) + 1 + 4) + 2 + 3 * 4;
  static_assert(sizeof(Query) <= sizeof(Reply) &&
                sizeof(RankMsg) <= sizeof(Reply) &&
                sizeof(GatherNode) <= sizeof(Reply));
  const std::uint64_t gamma = std::max({
      // Contraction and expansion: queries, replies, splices and ranks —
      // at most c per processor each way (one predecessor per node).
      spread(c, sizeof(Reply)),
      // Gather: processor 0 receives the survivors and sends their ranks.
      spread(g, sizeof(GatherNode)),
      // Active counts to processor 0; its decision to everyone.
      v * bsp::wire_bytes(sizeof(std::uint64_t)),
  });
  return bsp::Requirements{mu, gamma, 0};
}

bool ListRankingProgram::superstep(std::size_t, const bsp::ProcEnv& env,
                                   State& s, const bsp::Inbox& in,
                                   bsp::Outbox& out) const {
  switch (s.phase) {
    case kContract:
      return contract_step(env, s, in, out);
    case kGather:
      return gather_step(env, s, in, out);
    case kExpand:
      return expand_step(env, s, in, out);
    default:
      return false;
  }
}

bool ListRankingProgram::contract_step(const bsp::ProcEnv& env, State& s,
                                       const bsp::Inbox& in,
                                       bsp::Outbox& out) const {
  BlockDist dist{n, env.nprocs};
  const std::uint64_t first = dist.first(env.pid);

  switch (s.sub) {
    case 0: {
      if (s.round > 0) {
        const auto decision = in.value<std::uint8_t>(0);
        if (decision == 0) {
          // Switch to the gather phase; this superstep performs its first
          // sub-step (shipping survivors to processor 0).
          s.phase = kGather;
          s.total_rounds = s.round;
          std::vector<GatherNode> nodes;
          for (std::size_t lu = 0; lu < s.succ.size(); ++lu) {
            if (s.status[lu] != kActive) continue;
            nodes.push_back(GatherNode{first + lu, s.succ[lu], s.w1[lu],
                                       s.w2[lu]});
          }
          if (!nodes.empty()) out.send_vector(0, nodes);
          s.sub = 1;
          return true;
        }
      }
      // Independent-set queries: u splices its successor s out when
      // coin(u) = 1 and coin(s) = 0 and s is not a tail; whether s is a
      // tail (and its data) comes from s's owner.
      std::vector<std::vector<Query>> queries(env.nprocs);
      for (std::size_t lu = 0; lu < s.succ.size(); ++lu) {
        if (s.status[lu] != kActive) continue;
        const std::uint64_t u = first + lu;
        const std::uint64_t sn = s.succ[lu];
        if (sn == u) continue;  // tail
        if (coin(u, s.round, seed) != 1 || coin(sn, s.round, seed) != 0) {
          continue;
        }
        queries[dist.owner(sn)].push_back(Query{sn, u});
      }
      env.charge(s.succ.size() + 1);
      for (std::uint32_t q = 0; q < env.nprocs; ++q) {
        if (!queries[q].empty()) out.send_vector(q, queries[q]);
      }
      s.sub = 1;
      return true;
    }
    case 1: {
      std::vector<std::vector<Reply>> replies(env.nprocs);
      for (std::size_t i = 0; i < in.count(); ++i) {
        for (const auto& q : in.vector<Query>(i)) {
          const std::uint64_t ls = q.s - first;
          Reply r{};
          r.u = q.u;
          r.s_succ = s.succ[ls];
          r.s_w1 = s.w1[ls];
          r.s_w2 = s.w2[ls];
          r.s_is_tail = s.succ[ls] == q.s ? 1 : 0;
          replies[dist.owner(q.u)].push_back(r);
        }
      }
      for (std::uint32_t q = 0; q < env.nprocs; ++q) {
        if (!replies[q].empty()) out.send_vector(q, replies[q]);
      }
      s.sub = 2;
      return true;
    }
    case 2: {
      std::vector<std::vector<Query>> splices(env.nprocs);
      for (std::size_t i = 0; i < in.count(); ++i) {
        for (const auto& r : in.vector<Reply>(i)) {
          if (r.s_is_tail) continue;
          const std::uint64_t lu = r.u - first;
          const std::uint64_t s_id = s.succ[lu];
          s.succ[lu] = r.s_succ;
          s.w1[lu] += r.s_w1;
          s.w2[lu] += r.s_w2;  // wrapping add: channel 2 is two's complement
          splices[dist.owner(s_id)].push_back(Query{s_id, r.u});
        }
      }
      for (std::uint32_t q = 0; q < env.nprocs; ++q) {
        if (!splices[q].empty()) out.send_vector(q, splices[q]);
      }
      s.sub = 3;
      return true;
    }
    case 3: {
      for (std::size_t i = 0; i < in.count(); ++i) {
        for (const auto& m : in.vector<Query>(i)) {
          const std::uint64_t ls = m.s - first;
          s.status[ls] = kSpliced;
          s.splice_round[ls] = s.round;
        }
      }
      std::uint64_t active = 0;
      for (auto st : s.status) {
        if (st == kActive) ++active;
      }
      out.send_value<std::uint64_t>(0, active);
      s.sub = 4;
      return true;
    }
    default: {  // sub 4: processor 0 decides continue vs gather
      if (env.pid == 0) {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < in.count(); ++i) {
          total += in.value<std::uint64_t>(i);
        }
        const std::uint8_t decision =
            total > resolved_gather_threshold(dist.chunk()) ? 1 : 0;
        for (std::uint32_t q = 0; q < env.nprocs; ++q) {
          out.send_value(q, decision);
        }
      }
      s.round += 1;
      s.sub = 0;
      return true;
    }
  }
}

bool ListRankingProgram::gather_step(const bsp::ProcEnv& env, State& s,
                                     const bsp::Inbox& in,
                                     bsp::Outbox& out) const {
  BlockDist dist{n, env.nprocs};
  switch (s.sub) {
    case 1: {
      // Processor 0 ranks the contracted list sequentially.
      if (env.pid == 0) {
        std::unordered_map<std::uint64_t, GatherNode> nodes;
        for (std::size_t i = 0; i < in.count(); ++i) {
          for (const auto& gnode : in.vector<GatherNode>(i)) {
            nodes.emplace(gnode.id, gnode);
          }
        }
        std::unordered_map<std::uint64_t, RankMsg> ranks;
        std::vector<std::uint64_t> stack;
        for (const auto& [id, gnode] : nodes) {
          if (ranks.count(id) != 0) continue;
          std::uint64_t cur = id;
          stack.clear();
          while (ranks.count(cur) == 0) {
            if (stack.size() > nodes.size()) {
              throw std::runtime_error(
                  "cgm_list_ranking: successor cycle detected — the input "
                  "is not a set of lists with self-loop tails");
            }
            const auto& nd = nodes.at(cur);
            if (nd.succ == cur) {
              ranks[cur] = RankMsg{cur, nd.w1, nd.w2};  // tail
              break;
            }
            stack.push_back(cur);
            cur = nd.succ;
          }
          while (!stack.empty()) {
            const std::uint64_t u = stack.back();
            stack.pop_back();
            const auto& nd = nodes.at(u);
            const auto& rs = ranks.at(nd.succ);
            ranks[u] = RankMsg{u, nd.w1 + rs.r1, nd.w2 + rs.r2};
          }
        }
        env.charge(nodes.size() * 4 + 1);
        std::vector<std::vector<RankMsg>> outgoing(env.nprocs);
        for (const auto& [id, rmsg] : ranks) {
          outgoing[dist.owner(id)].push_back(rmsg);
        }
        for (std::uint32_t q = 0; q < env.nprocs; ++q) {
          if (!outgoing[q].empty()) out.send_vector(q, outgoing[q]);
        }
      }
      s.sub = 2;
      return true;
    }
    default: {  // sub 2: receive base ranks, enter expansion
      const std::uint64_t first = dist.first(env.pid);
      for (std::size_t i = 0; i < in.count(); ++i) {
        for (const auto& rmsg : in.vector<RankMsg>(i)) {
          const std::uint64_t lu = rmsg.id - first;
          s.rank1[lu] = rmsg.r1;
          s.rank2[lu] = rmsg.r2;
          s.status[lu] = kFinal;
        }
      }
      if (s.total_rounds == 0) {
        s.phase = kDone;
        return false;
      }
      s.phase = kExpand;
      s.expand_round = s.total_rounds - 1;
      s.sub = 0;
      return true;
    }
  }
}

bool ListRankingProgram::expand_step(const bsp::ProcEnv& env, State& s,
                                     const bsp::Inbox& in,
                                     bsp::Outbox& out) const {
  BlockDist dist{n, env.nprocs};
  const std::uint64_t first = dist.first(env.pid);
  switch (s.sub) {
    case 0: {
      std::vector<std::vector<Query>> queries(env.nprocs);
      for (std::size_t lu = 0; lu < s.succ.size(); ++lu) {
        if (s.status[lu] != kSpliced || s.splice_round[lu] != s.expand_round) {
          continue;
        }
        queries[dist.owner(s.succ[lu])].push_back(
            Query{s.succ[lu], first + lu});
      }
      for (std::uint32_t q = 0; q < env.nprocs; ++q) {
        if (!queries[q].empty()) out.send_vector(q, queries[q]);
      }
      s.sub = 1;
      return true;
    }
    case 1: {
      std::vector<std::vector<RankMsg>> replies(env.nprocs);
      for (std::size_t i = 0; i < in.count(); ++i) {
        for (const auto& q : in.vector<Query>(i)) {
          const std::uint64_t ls = q.s - first;
          if (s.status[ls] != kFinal) {
            throw std::runtime_error(
                "cgm_list_ranking: expansion queried a non-final rank "
                "(internal invariant violated)");
          }
          replies[dist.owner(q.u)].push_back(
              RankMsg{q.u, s.rank1[ls], s.rank2[ls]});
        }
      }
      for (std::uint32_t q = 0; q < env.nprocs; ++q) {
        if (!replies[q].empty()) out.send_vector(q, replies[q]);
      }
      s.sub = 2;
      return true;
    }
    default: {  // sub 2
      for (std::size_t i = 0; i < in.count(); ++i) {
        for (const auto& rmsg : in.vector<RankMsg>(i)) {
          const std::uint64_t lu = rmsg.id - first;
          s.rank1[lu] = s.w1[lu] + rmsg.r1;
          s.rank2[lu] = s.w2[lu] + rmsg.r2;
          s.status[lu] = kFinal;
        }
      }
      if (s.expand_round == 0) {
        s.phase = kDone;
        return false;
      }
      s.expand_round -= 1;
      s.sub = 0;
      return true;
    }
  }
}

}  // namespace embsp::cgm
