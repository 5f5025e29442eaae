// Layout planning for the EM-BSP* simulators.
//
// One planner computes the group layout all three simulators used to derive
// inline (SeqSimulator / ParSimulator / DistSimulator): the flat SimLayout
// of §5.1 (k = floor(M/slot) grouping, group receive capacity, the staging
// budget left for routing), plus two extensions:
//
//  * Multi-level (recursive) grouping.  A flat schedule needs k·slot ≤ M
//    (2·k·slot ≤ M pipelined).  When an explicitly requested k exceeds that
//    bound, plan() no longer rejects the config: it emits a two-level group
//    tree — super-groups of ⌈k/k_leaf⌉ leaf groups, each leaf sized to fit
//    M — and the MessageStore walks it level by level, routing at
//    super-group granularity (Algorithm 2 unchanged) and re-cutting each
//    super-group through a scratch region into leaf-granular blocks on
//    first fetch.  The level-bound invariant: at every level the resident
//    context working set is k_leaf·slot·resident ≤ M and the routing
//    working sets stay O((D + fanout)·B), like Algorithm 2's O(D·B).
//
//  * Self-tuning (SimConfig::auto_tune).  apply_auto_tune() picks k,
//    routing mode (compact vs in-memory via RoutingMode::automatic),
//    coalescing and the compute-pool width instead of hand-set flags;
//    GroupTuner re-plans the compute width at superstep boundaries only,
//    from the engine's stall/busy deltas, so the call-indexed fault
//    schedule stays aligned within a superstep run.  Results never depend
//    on any tuned knob — only wall clock does.
#pragma once

#include <cstdint>
#include <vector>

#include "em/io_error.hpp"
#include "em/io_stats.hpp"
#include "obs/metrics.hpp"
#include "sim/sim_config.hpp"

namespace embsp::sim {

/// Typed configuration error for layouts the machine cannot host: a single
/// context slot larger than M, zero virtual processors (k would underflow
/// to 0), a flat group request exceeding the memory bound, or a feature
/// combination the multi-level schedule does not support.  Persistent in
/// the em::IoError taxonomy — retrying the same config cannot succeed.
class LayoutError : public em::IoError {
 public:
  explicit LayoutError(const std::string& what)
      : em::IoError(Kind::persistent, what) {}
};

/// Flat layout derived from a SimConfig (shared with the parallel and
/// distributed simulators, which apply it per real processor).
struct SimLayout {
  std::size_t k = 1;                  ///< group size
  std::uint32_t num_groups = 1;       ///< destination groups per processor
  std::uint64_t group_capacity = 1;   ///< blocks a group may receive
  /// Blocks all groups together may receive in one superstep; 0 when no
  /// exchange is declared (then num_groups * group_capacity bounds it).
  std::uint64_t total_capacity = 0;
  std::size_t context_slot_bytes = 0; ///< mu rounded up to blocks
  /// What M leaves after the resident context groups — the staging budget
  /// offered to RoutingMode::automatic's in-memory fast path.
  std::uint64_t routing_mem_budget = 0;

  /// Computes the flat layout for `local_v` virtual processors on one real
  /// processor.  Throws LayoutError if the config violates the model
  /// (k*slot > M, slot > M, local_v == 0) and std::invalid_argument when
  /// mu/gamma/B are unset or malformed.
  static SimLayout compute(const SimConfig& cfg, std::uint32_t local_v);
};

/// One level of the group tree.  Level 0 is the leaf level (what the
/// context/message working sets are sized by); level 1, when present,
/// groups `k / levels[0].k` consecutive leaf groups into one super-group.
struct GroupLevel {
  std::size_t k = 1;             ///< virtual processors per group
  std::uint32_t num_groups = 1;  ///< groups at this level (per processor)
};

struct LayoutPlan {
  /// Leaf-level layout — identical to SimLayout::compute whenever a flat
  /// schedule is feasible (the parity contract the simulators rely on).
  SimLayout leaf;
  std::vector<GroupLevel> levels;  ///< [0] = leaf; size() == 1 means flat
  /// Hierarchical plans only: blocks one super-group may receive per
  /// superstep (what the MessageStore's level-1 routing is sized by) ...
  std::uint64_t super_capacity_blocks = 0;
  /// ... and the per-leaf slab capacity of the distribution scratch region
  /// (level 2; conservative — chunk-granular re-packing fragments).
  std::uint64_t leaf_capacity_blocks = 0;

  [[nodiscard]] bool hierarchical() const { return levels.size() > 1; }
  /// Leaf groups per super-group (1 for flat plans).
  [[nodiscard]] std::uint32_t fanout() const {
    return hierarchical()
               ? static_cast<std::uint32_t>(levels[1].k / levels[0].k)
               : 1u;
  }
};

class LayoutPlanner {
 public:
  /// The extracted flat computation (exactly what the three simulators
  /// computed inline before the planner existed).
  static SimLayout flat(const SimConfig& cfg, std::uint32_t local_v);

  /// Group-tree planning: a flat single-level plan whenever the requested
  /// (or auto-picked) k fits the memory bound, otherwise a two-level plan
  /// whose leaf size is the largest that fits.  Never rejects a config a
  /// flat schedule accepts; rejects only what no level count can fix
  /// (slot > M, local_v == 0).
  static LayoutPlan plan(const SimConfig& cfg, std::uint32_t local_v);

  /// Static half of SimConfig::auto_tune, applied once at simulator
  /// construction (before the disk arrays are built): k goes back to the
  /// planner's formula, routing to RoutingMode::automatic (in-memory when
  /// the budget admits it, compact otherwise), coalescing on unless fault
  /// injection would make retries shift the call schedule, and — when
  /// pipelining — a hardware-sized compute-pool width.  No-op unless
  /// cfg.auto_tune is set.
  static void apply_auto_tune(SimConfig& cfg);

  /// Export the chosen plan as `sim.layout.*` gauges.
  static void export_plan(obs::Registry& reg, const LayoutPlan& plan,
                          const SimConfig& cfg);
};

/// Superstep-boundary re-planner for the compute-pool width (the one knob
/// that is safe to change mid-run: the on-disk layout and the per-disk
/// call-indexed fault schedule never depend on it).  recommend() reads the
/// engine's stall/busy deltas since its previous call: an I/O-bound
/// superstep (the issuing thread spent most of the busiest disk's service
/// time stalled) sheds a compute thread; a compute-bound one (almost no
/// stall) adds one.
class GroupTuner {
 public:
  GroupTuner(std::size_t min_width, std::size_t max_width)
      : min_w_(min_width), max_w_(max_width) {}

  [[nodiscard]] std::size_t recommend(const em::EngineStats& stats,
                                      std::size_t current);

  /// Boundaries at which the recommendation changed the width.
  [[nodiscard]] std::uint64_t replans() const { return replans_; }

 private:
  std::size_t min_w_;
  std::size_t max_w_;
  em::EngineStats prev_;  ///< baseline for stall_fraction_since deltas
  std::uint64_t replans_ = 0;
};

}  // namespace embsp::sim
