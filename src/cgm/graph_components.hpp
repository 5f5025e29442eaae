// CGM connected components + spanning forest (Table 1, Group C), after
// Cáceres et al. [11]: repeated hook-and-contract rounds.
//
// One HOOK round (4 supersteps): every active edge looks up the component
// labels (roots) of its endpoints; edges joining distinct components send a
// hook candidate "root r should attach to smaller root m"; each root
// accepts the minimum candidate (strictly decreasing labels — no cycles)
// and the winning edges become spanning-forest edges.  A JUMP loop (4
// supersteps per iteration) then compresses parent chains until every
// vertex points at its root.  When the surviving inter-component edges fit
// one processor, they are gathered and finished with a sequential
// union-find, and the final label mapping is broadcast.
//
// Components-with-external-edges at least halve per hook round, so the
// number of rounds is O(log n) worst case and small in practice; the bench
// reports the measured lambda against Table 1's O(log p) shape.
#pragma once

#include <vector>

#include "bsp/program.hpp"
#include "cgm/runner.hpp"
#include "util/workloads.hpp"

namespace embsp::cgm {

struct ComponentsProgram {
  std::uint64_t n = 0;            ///< vertices
  std::uint64_t m = 0;            ///< edges
  std::uint64_t gather_threshold = 0;  ///< 0 = max(2*ceil(m/v), 64)

  enum Phase : std::uint8_t {
    kHookLookup = 0,   // H0/H1/H2/H3 via sub
    kJump = 1,         // J0..J3 via sub
    kEdgeCount = 2,    // E0 (count) / E1 (decide)
    kGather = 3,       // G0..G3 via sub
    kResolve = 4,
    kDone = 5,
  };

  struct EdgeRec {
    std::uint64_t u, v;
    std::uint64_t id;
    std::uint64_t lu, lv;  ///< last looked-up labels
    std::uint8_t active;
    std::uint8_t pad[7];
  };
  struct LabelQuery {
    std::uint64_t vertex;
    std::uint32_t edge_idx;
    std::uint8_t side;  ///< 0 = u, 1 = v
    std::uint8_t pad[3];
  };
  struct LabelReply {
    std::uint64_t label;
    std::uint32_t edge_idx;
    std::uint8_t side;
    std::uint8_t pad[3];
  };
  struct Hook {
    std::uint64_t r, mlabel, edge_id;
  };
  struct JumpQuery {
    std::uint64_t p, x;
  };
  struct JumpReply {
    std::uint64_t x, gp;
  };
  struct GatherEdge {
    std::uint64_t lu, lv, id;
  };
  struct MapEntry {
    std::uint64_t from, to;
  };

  struct State {
    std::vector<std::uint64_t> parent;  ///< local vertex slab
    std::vector<EdgeRec> edges;         ///< local edge share
    std::vector<std::uint64_t> tree_edges;  ///< chosen forest edge ids
    std::uint8_t phase = kHookLookup;
    std::uint8_t sub = 0;
    std::uint32_t hook_rounds = 0;
    std::uint32_t jump_rounds = 0;

    void serialize(util::Writer& w) const {
      w.write_vector(parent);
      w.write_vector(edges);
      w.write_vector(tree_edges);
      w.write(phase);
      w.write(sub);
      w.write(hook_rounds);
      w.write(jump_rounds);
    }
    void deserialize(util::Reader& r) {
      parent = r.read_vector<std::uint64_t>();
      edges = r.read_vector<EdgeRec>();
      tree_edges = r.read_vector<std::uint64_t>();
      phase = r.read<std::uint8_t>();
      sub = r.read<std::uint8_t>();
      hook_rounds = r.read<std::uint32_t>();
      jump_rounds = r.read<std::uint32_t>();
    }
  };

  bool superstep(std::size_t, const bsp::ProcEnv& env, State& s,
                 const bsp::Inbox& in, bsp::Outbox& out) const;

  /// Declared bounds for n vertices and m edges over v processors.  A
  /// processor owns at most ceil(n/v) vertices and ceil(m/v) edges, and
  /// records one forest edge per vertex it hooks, plus (processor 0) one
  /// per union in the gather.  Queries and hooks addressed to one vertex
  /// are not bounded by n/v — every edge of a star asks its centre — so
  /// gamma is Theta(m): the whole query volume may land on one processor.
  /// The declared exchange (all processors' traffic in one superstep) is
  /// Theta(m) as well, which keeps a group's planned receive capacity at
  /// about gamma instead of k*gamma.  lambda is left 0: the number of hook
  /// rounds depends on the graph.
  [[nodiscard]] bsp::Requirements requirements(std::uint32_t v) const;

 private:
  /// Active-edge count at or below which the hook rounds stop and gather.
  [[nodiscard]] std::uint64_t resolved_gather_threshold(
      std::uint64_t edge_chunk) const {
    return gather_threshold != 0
               ? gather_threshold
               : std::max<std::uint64_t>(2 * edge_chunk, 64);
  }
  void send_label_queries(const bsp::ProcEnv& env, State& s,
                          bsp::Outbox& out) const;
  void answer_label_queries(const bsp::ProcEnv& env, State& s,
                            const bsp::Inbox& in, bsp::Outbox& out) const;
  void receive_labels(State& s, const bsp::Inbox& in) const;
};

struct ComponentsOutcome {
  std::vector<std::uint64_t> component;   ///< label per vertex
  std::vector<std::uint64_t> tree_edges;  ///< spanning forest edge ids
  ExecResult exec;
};

template <class Exec>
ComponentsOutcome cgm_connected_components(Exec& exec, std::uint64_t n,
                                           std::span<const util::Edge> edges,
                                           std::uint32_t v) {
  ComponentsProgram prog;
  prog.n = n;
  prog.m = edges.size();
  using State = ComponentsProgram::State;
  BlockDist vdist{n, v};
  BlockDist edist{edges.size(), v};
  ComponentsOutcome outcome;
  outcome.component.assign(n, 0);
  outcome.exec = exec.run(
      prog, v,
      std::function<State(std::uint32_t)>([&](std::uint32_t pid) {
        State s;
        const auto vfirst = vdist.first(pid);
        for (std::uint64_t i = 0; i < vdist.count(pid); ++i) {
          s.parent.push_back(vfirst + i);
        }
        const auto efirst = edist.first(pid);
        for (std::uint64_t i = 0; i < edist.count(pid); ++i) {
          const auto& e = edges[efirst + i];
          s.edges.push_back(ComponentsProgram::EdgeRec{
              e.u, e.v, efirst + i, 0, 0, 1, {}});
        }
        return s;
      }),
      std::function<void(std::uint32_t, State&)>(
          [&](std::uint32_t pid, State& s) {
            const auto vfirst = vdist.first(pid);
            for (std::uint64_t i = 0; i < s.parent.size(); ++i) {
              outcome.component[vfirst + i] = s.parent[i];
            }
            outcome.tree_edges.insert(outcome.tree_edges.end(),
                                      s.tree_edges.begin(),
                                      s.tree_edges.end());
          }));
  return outcome;
}

}  // namespace embsp::cgm
