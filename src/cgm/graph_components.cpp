#include "cgm/graph_components.hpp"

#include <algorithm>
#include <unordered_map>

namespace embsp::cgm {

namespace {

/// Sequential union-find used by processor 0 in the gather phase.
class Dsu {
 public:
  std::uint64_t find(std::uint64_t x) {
    auto it = parent_.find(x);
    if (it == parent_.end() || it->second == x) return x;
    const std::uint64_t r = find(it->second);
    parent_[x] = r;
    return r;
  }
  /// Returns true if the union merged two distinct sets.
  bool unite(std::uint64_t a, std::uint64_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (a < b) std::swap(a, b);  // keep the smaller label as root
    parent_[a] = b;
    return true;
  }
  [[nodiscard]] const std::unordered_map<std::uint64_t, std::uint64_t>&
  raw() const {
    return parent_;
  }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> parent_;
};

}  // namespace

bsp::Requirements ComponentsProgram::requirements(std::uint32_t v) const {
  const std::uint64_t cv = BlockDist{n, v}.chunk();
  const std::uint64_t ce = BlockDist{m, v}.chunk();
  // Edges processor 0 gathers: the hook rounds stop at or below the
  // threshold; each gathered edge adds at most one union.
  const std::uint64_t g = std::min(resolved_gather_threshold(ce), m);
  // Forest edges one processor records: one per local vertex it hooks,
  // plus processor 0's unions; a forest has fewer than n edges.
  const std::uint64_t forest = std::min(n, cv + g);
  const auto spread = [v](std::uint64_t records, std::uint64_t bytes) {
    return bsp::vector_wire_bytes(records, bytes,
                                  std::min<std::uint64_t>(v, records));
  };
  // State: three length-prefixed vectors, then phase, sub and two u32
  // round counters.
  const std::size_t mu = 3 * sizeof(std::uint64_t) +
                         cv * sizeof(std::uint64_t) + ce * sizeof(EdgeRec) +
                         forest * sizeof(std::uint64_t) + 2 + 2 * 4;
  const std::uint64_t gamma = std::max({
      // Label lookups: two queries per edge may all address one processor,
      // which answers each of them.
      spread(2 * m, std::max(sizeof(LabelQuery), sizeof(LabelReply))),
      // Hooks: every edge may hook the same root.
      spread(m, sizeof(Hook)),
      // Pointer jumping: one query per vertex, all possibly to one owner.
      spread(n, std::max(sizeof(JumpQuery), sizeof(JumpReply))),
      // Gather: edges to processor 0, then its label map to everyone.
      spread(g, sizeof(GatherEdge)),
      v * bsp::vector_wire_bytes(std::min(g, n), sizeof(MapEntry), 1),
      // Counts to processor 0; its decisions to everyone.
      v * bsp::wire_bytes(sizeof(std::uint64_t)),
  });
  // Exchange: the same supersteps summed over all processors.  The query
  // volume is what gamma's worst case concentrates on one processor, so
  // exchange stays close to gamma while a group's k*gamma would not.
  const auto all = [v](std::uint64_t records, std::uint64_t bytes) {
    return bsp::vector_wire_bytes(
        records, bytes,
        std::min(static_cast<std::uint64_t>(v) * v, records));
  };
  const std::uint64_t exchange = std::max({
      all(2 * m, std::max(sizeof(LabelQuery), sizeof(LabelReply))),
      all(m, sizeof(Hook)),
      all(n, std::max(sizeof(JumpQuery), sizeof(JumpReply))),
      all(g, sizeof(GatherEdge)),
      v * bsp::vector_wire_bytes(std::min(g, n), sizeof(MapEntry), 1),
      v * bsp::wire_bytes(sizeof(std::uint64_t)),
  });
  return bsp::Requirements{mu, gamma, 0, exchange};
}

void ComponentsProgram::send_label_queries(const bsp::ProcEnv& env, State& s,
                                           bsp::Outbox& out) const {
  BlockDist vdist{n, env.nprocs};
  std::vector<std::vector<LabelQuery>> queries(env.nprocs);
  for (std::uint32_t e = 0; e < s.edges.size(); ++e) {
    if (!s.edges[e].active) continue;
    queries[vdist.owner(s.edges[e].u)].push_back(
        LabelQuery{s.edges[e].u, e, 0, {}});
    queries[vdist.owner(s.edges[e].v)].push_back(
        LabelQuery{s.edges[e].v, e, 1, {}});
  }
  env.charge(s.edges.size() + 1);
  for (std::uint32_t q = 0; q < env.nprocs; ++q) {
    if (!queries[q].empty()) out.send_vector(q, queries[q]);
  }
}

void ComponentsProgram::answer_label_queries(const bsp::ProcEnv& env,
                                             State& s, const bsp::Inbox& in,
                                             bsp::Outbox& out) const {
  BlockDist vdist{n, env.nprocs};
  const std::uint64_t first = vdist.first(env.pid);
  std::vector<std::vector<LabelReply>> replies(env.nprocs);
  for (std::size_t i = 0; i < in.count(); ++i) {
    const auto src = in.all()[i].src;
    for (const auto& q : in.vector<LabelQuery>(i)) {
      replies[src].push_back(
          LabelReply{s.parent[q.vertex - first], q.edge_idx, q.side, {}});
    }
  }
  for (std::uint32_t q = 0; q < env.nprocs; ++q) {
    if (!replies[q].empty()) out.send_vector(q, replies[q]);
  }
}

void ComponentsProgram::receive_labels(State& s, const bsp::Inbox& in) const {
  for (std::size_t i = 0; i < in.count(); ++i) {
    for (const auto& r : in.vector<LabelReply>(i)) {
      auto& e = s.edges[r.edge_idx];
      if (r.side == 0) {
        e.lu = r.label;
      } else {
        e.lv = r.label;
      }
    }
  }
}

bool ComponentsProgram::superstep(std::size_t, const bsp::ProcEnv& env,
                                  State& s, const bsp::Inbox& in,
                                  bsp::Outbox& out) const {
  BlockDist vdist{n, env.nprocs};
  BlockDist edist{m, env.nprocs};
  const std::uint64_t vfirst = vdist.first(env.pid);
  const std::uint64_t threshold = resolved_gather_threshold(edist.chunk());

  switch (s.phase) {
    case kHookLookup:
      switch (s.sub) {
        case 0:
          send_label_queries(env, s, out);
          s.sub = 1;
          return true;
        case 1:
          answer_label_queries(env, s, in, out);
          s.sub = 2;
          return true;
        case 2: {
          receive_labels(s, in);
          std::vector<std::vector<Hook>> hooks(env.nprocs);
          for (auto& e : s.edges) {
            if (!e.active) continue;
            if (e.lu == e.lv) {
              e.active = 0;  // intra-component edge, done with it
              continue;
            }
            const std::uint64_t r = std::max(e.lu, e.lv);
            const std::uint64_t ml = std::min(e.lu, e.lv);
            hooks[vdist.owner(r)].push_back(Hook{r, ml, e.id});
          }
          env.charge(s.edges.size() + 1);
          for (std::uint32_t q = 0; q < env.nprocs; ++q) {
            if (!hooks[q].empty()) out.send_vector(q, hooks[q]);
          }
          s.sub = 3;
          return true;
        }
        default: {  // sub 3: accept the minimum hook per root
          std::unordered_map<std::uint64_t, Hook> best;
          for (std::size_t i = 0; i < in.count(); ++i) {
            for (const auto& h : in.vector<Hook>(i)) {
              auto [it, inserted] = best.try_emplace(h.r, h);
              if (!inserted && h.mlabel < it->second.mlabel) it->second = h;
            }
          }
          for (const auto& [r, h] : best) {
            const std::uint64_t lr = r - vfirst;
            if (s.parent[lr] == r) {  // still a root
              s.parent[lr] = h.mlabel;
              s.tree_edges.push_back(h.edge_id);
            }
          }
          s.hook_rounds += 1;
          s.phase = kJump;
          s.sub = 0;
          return true;
        }
      }
    case kJump:
      switch (s.sub) {
        case 0: {
          std::vector<std::vector<JumpQuery>> queries(env.nprocs);
          for (std::uint64_t i = 0; i < s.parent.size(); ++i) {
            if (s.parent[i] == vfirst + i) continue;
            queries[vdist.owner(s.parent[i])].push_back(
                JumpQuery{s.parent[i], vfirst + i});
          }
          env.charge(s.parent.size() + 1);
          for (std::uint32_t q = 0; q < env.nprocs; ++q) {
            if (!queries[q].empty()) out.send_vector(q, queries[q]);
          }
          s.sub = 1;
          return true;
        }
        case 1: {
          std::vector<std::vector<JumpReply>> replies(env.nprocs);
          for (std::size_t i = 0; i < in.count(); ++i) {
            for (const auto& q : in.vector<JumpQuery>(i)) {
              replies[vdist.owner(q.x)].push_back(
                  JumpReply{q.x, s.parent[q.p - vfirst]});
            }
          }
          for (std::uint32_t q = 0; q < env.nprocs; ++q) {
            if (!replies[q].empty()) out.send_vector(q, replies[q]);
          }
          s.sub = 2;
          return true;
        }
        case 2: {
          std::uint64_t changed = 0;
          for (std::size_t i = 0; i < in.count(); ++i) {
            for (const auto& r : in.vector<JumpReply>(i)) {
              auto& p = s.parent[r.x - vfirst];
              if (p != r.gp) {
                p = r.gp;
                ++changed;
              }
            }
          }
          s.jump_rounds += 1;
          out.send_value<std::uint64_t>(0, changed);
          s.sub = 3;
          return true;
        }
        case 3: {
          if (env.pid == 0) {
            std::uint64_t total = 0;
            for (std::size_t i = 0; i < in.count(); ++i) {
              total += in.value<std::uint64_t>(i);
            }
            const std::uint8_t again = total > 0 ? 1 : 0;
            for (std::uint32_t q = 0; q < env.nprocs; ++q) {
              out.send_value(q, again);
            }
          }
          s.sub = 4;
          return true;
        }
        default: {  // sub 4: dispatch on the jump decision
          if (in.value<std::uint8_t>(0) == 1) {
            s.phase = kJump;
            s.sub = 1;
            // Re-issue the jump queries in this superstep.
            std::vector<std::vector<JumpQuery>> queries(env.nprocs);
            for (std::uint64_t i = 0; i < s.parent.size(); ++i) {
              if (s.parent[i] == vfirst + i) continue;
              queries[vdist.owner(s.parent[i])].push_back(
                  JumpQuery{s.parent[i], vfirst + i});
            }
            for (std::uint32_t q = 0; q < env.nprocs; ++q) {
              if (!queries[q].empty()) out.send_vector(q, queries[q]);
            }
            return true;
          }
          // Jumping converged: count surviving edges.
          std::uint64_t active = 0;
          for (const auto& e : s.edges) active += e.active;
          out.send_value<std::uint64_t>(0, active);
          s.phase = kEdgeCount;
          s.sub = 1;
          return true;
        }
      }
    case kEdgeCount:
      switch (s.sub) {
        case 1: {
          if (env.pid == 0) {
            std::uint64_t total = 0;
            for (std::size_t i = 0; i < in.count(); ++i) {
              total += in.value<std::uint64_t>(i);
            }
            const std::uint8_t more = total > threshold ? 1 : 0;
            for (std::uint32_t q = 0; q < env.nprocs; ++q) {
              out.send_value(q, more);
            }
          }
          s.sub = 2;
          return true;
        }
        default: {  // sub 2: another hook round or gather
          if (in.value<std::uint8_t>(0) == 1) {
            s.phase = kHookLookup;
            s.sub = 1;
            send_label_queries(env, s, out);
          } else {
            s.phase = kGather;
            s.sub = 1;
            send_label_queries(env, s, out);  // fresh labels for the gather
          }
          return true;
        }
      }
    case kGather:
      switch (s.sub) {
        case 1:
          answer_label_queries(env, s, in, out);
          s.sub = 2;
          return true;
        case 2: {
          receive_labels(s, in);
          std::vector<GatherEdge> send;
          for (auto& e : s.edges) {
            if (!e.active) continue;
            if (e.lu == e.lv) {
              e.active = 0;
              continue;
            }
            send.push_back(GatherEdge{e.lu, e.lv, e.id});
          }
          if (!send.empty()) out.send_vector(0, send);
          s.sub = 3;
          return true;
        }
        case 3: {
          if (env.pid == 0) {
            Dsu dsu;
            for (std::size_t i = 0; i < in.count(); ++i) {
              for (const auto& e : in.vector<GatherEdge>(i)) {
                if (dsu.unite(e.lu, e.lv)) s.tree_edges.push_back(e.id);
              }
            }
            std::vector<MapEntry> mapping;
            for (const auto& [x, _] : dsu.raw()) {
              mapping.push_back(MapEntry{x, dsu.find(x)});
            }
            env.charge(mapping.size() * 4 + 1);
            for (std::uint32_t q = 0; q < env.nprocs; ++q) {
              out.send_vector(q, mapping);
            }
          }
          s.sub = 4;
          return true;
        }
        default: {  // sub 4: apply the final label mapping
          std::unordered_map<std::uint64_t, std::uint64_t> mapping;
          for (const auto& e : in.vector<MapEntry>(0)) {
            mapping.emplace(e.from, e.to);
          }
          for (auto& p : s.parent) {
            auto it = mapping.find(p);
            if (it != mapping.end()) p = it->second;
          }
          env.charge(s.parent.size() + 1);
          s.phase = kDone;
          return false;
        }
      }
    default:
      return false;
  }
}

}  // namespace embsp::cgm
