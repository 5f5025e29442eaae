#include "sim/layout_planner.hpp"

#include <algorithm>
#include <string>
#include <thread>

#include "bsp/params.hpp"

namespace embsp::sim {

namespace {

/// Pieces of the layout arithmetic every planning entry point shares.
struct LayoutCore {
  std::size_t slot = 0;      ///< context slot bytes (mu + header, in blocks)
  std::size_t resident = 1;  ///< context groups resident at once
  std::size_t usable = 1;    ///< packed message payload bytes per block
};

LayoutCore validate_core(const SimConfig& cfg, std::uint32_t local_v) {
  const auto& em = cfg.machine.em;
  if (cfg.mu == 0) {
    throw std::invalid_argument("SimLayout: mu (max context bytes) not set");
  }
  if (cfg.gamma == 0) {
    throw std::invalid_argument(
        "SimLayout: gamma (max comm bytes per processor) not set");
  }
  if (em.B < kMinBlockSize) {
    throw std::invalid_argument("SimLayout: block size B must be at least " +
                                std::to_string(kMinBlockSize) + " bytes");
  }
  if (local_v == 0) {
    throw LayoutError(
        "LayoutPlanner: this processor hosts 0 virtual processors, so the "
        "group size k = min(floor(M/slot), local_v) would underflow to 0; "
        "every real processor needs local_v >= 1");
  }

  LayoutCore core;
  // Context slot: [u32 length] + mu, rounded up to whole blocks.
  const std::size_t slot_blocks = (cfg.mu + 4 + em.B - 1) / em.B;
  core.slot = slot_blocks * em.B;
  // Pipelined execution double-buffers the context staging (groups g and
  // g+1 resident at once), so its memory bound tightens to 2*k*slot <= M.
  core.resident = cfg.pipeline ? 2 : 1;
  // Even k = 1 (one context resident per level) must respect the memory
  // bound; no amount of extra grouping levels can split a single context.
  if (core.slot * core.resident > em.M) {
    throw LayoutError(
        "LayoutPlanner: one context slot is " + std::to_string(core.slot) +
        " bytes (mu = " + std::to_string(cfg.mu) +
        " + header, rounded up to blocks)" +
        (cfg.pipeline ? ", doubled by pipelined double buffering" : "") +
        ", which already exceeds the memory bound M = " +
        std::to_string(em.M) + "; even k = 1 cannot fit");
  }

  const std::size_t payload = em.B - kBlockHeaderBytes;
  core.usable =
      payload > 2 * kChunkHeaderBytes ? payload - 2 * kChunkHeaderBytes : 1;
  return core;
}

/// k = floor(M / mu) at most v (§5.1), with the practical num_groups >= D
/// clamp — exactly the resolution the simulators used inline before the
/// planner existed (see flat()).
std::size_t resolve_k(const SimConfig& cfg, std::uint32_t local_v,
                      const LayoutCore& core) {
  const auto& em = cfg.machine.em;
  std::size_t k = cfg.k != 0
                      ? cfg.k
                      : bsp::default_group_size(em.M / core.resident,
                                                core.slot);
  if (cfg.k == 0 && local_v >= em.D) {
    k = std::min<std::size_t>(k, local_v / em.D);
  }
  k = std::min<std::size_t>(k, local_v);
  k = std::max<std::size_t>(k, 1);
  return k;
}

/// Blocks that `receivers` virtual processors may receive together in one
/// superstep: their gamma budgets, capped by the declared exchange (what
/// all processors send together), packed at >= core.usable bytes a block.
std::uint64_t receive_blocks(const SimConfig& cfg, const LayoutCore& core,
                             std::uint64_t receivers) {
  std::uint64_t bytes = receivers * cfg.gamma;
  if (cfg.exchange != 0) bytes = std::min<std::uint64_t>(bytes, cfg.exchange);
  return (bytes + core.usable - 1) / core.usable;
}

/// Fill a SimLayout for a resolved group size k (bounds already enforced).
SimLayout make_layout(const SimConfig& cfg, std::uint32_t local_v,
                      const LayoutCore& core, std::size_t k) {
  const auto& em = cfg.machine.em;
  SimLayout layout;
  layout.context_slot_bytes = core.slot;
  layout.k = k;
  layout.num_groups = static_cast<std::uint32_t>((local_v + k - 1) / k);
  // Blocks one group may receive in one superstep: k receivers, each with a
  // gamma budget, packed at >= (payload_capacity - chunk header) bytes per
  // block, plus one underfull tail block per source group.
  layout.group_capacity =
      receive_blocks(cfg, core, k) + layout.num_groups + 1;
  // With a declared exchange, all groups together receive at most its
  // packed size plus each group's tail blocks (and one block of rounding
  // per group).
  if (cfg.exchange != 0) {
    layout.total_capacity =
        std::min<std::uint64_t>(
            (cfg.exchange + core.usable - 1) / core.usable +
                static_cast<std::uint64_t>(layout.num_groups) *
                    (layout.num_groups + 2),
            static_cast<std::uint64_t>(layout.num_groups) *
                layout.group_capacity);
  }
  const std::uint64_t ctx_resident =
      static_cast<std::uint64_t>(core.resident) * k * core.slot;
  layout.routing_mem_budget = em.M > ctx_resident ? em.M - ctx_resident : 0;
  return layout;
}

}  // namespace

SimLayout LayoutPlanner::flat(const SimConfig& cfg, std::uint32_t local_v) {
  const auto& em = cfg.machine.em;
  const LayoutCore core = validate_core(cfg, local_v);
  const std::size_t k = resolve_k(cfg, local_v, core);
  // §5.1: "k = floor(M/mu)" — one group's contexts must fit the memory M
  // the model grants; an explicit cfg.k gets the same bound.  (No slack:
  // the group's message blocks of step 1(b) share the same M, so granting
  // more than M of context would already break the theorem's premise.)
  if (cfg.k != 0 && cfg.k * core.slot * core.resident > em.M) {
    throw LayoutError(
        "SimLayout: requested group size k needs " +
        std::to_string(cfg.k * core.slot * core.resident) +
        " bytes of context memory" +
        (cfg.pipeline ? " (2 groups resident: pipelined double buffering)"
                      : "") +
        " but M = " + std::to_string(em.M) +
        "; use multi-level grouping (LayoutPlanner::plan) to run this k");
  }
  return make_layout(cfg, local_v, core, k);
}

SimLayout SimLayout::compute(const SimConfig& cfg, std::uint32_t local_v) {
  return LayoutPlanner::flat(cfg, local_v);
}

LayoutPlan LayoutPlanner::plan(const SimConfig& cfg, std::uint32_t local_v) {
  const auto& em = cfg.machine.em;
  const LayoutCore core = validate_core(cfg, local_v);
  // Largest leaf group the memory bound admits (>= 1: slot*resident <= M
  // was just checked).
  const std::size_t k_fit =
      std::max<std::size_t>(1, (em.M / core.resident) / core.slot);
  const std::size_t k_req = resolve_k(cfg, local_v, core);

  LayoutPlan plan;
  if (k_req <= k_fit) {
    // Flat schedule feasible — emit exactly what flat() computes.  (plan()
    // clamps the requested k to local_v before the bound check, so it
    // accepts a handful of configs flat() rejects; the layouts agree on
    // every config both accept.)
    plan.leaf = make_layout(cfg, local_v, core, k_req);
    plan.levels.push_back(
        GroupLevel{plan.leaf.k, plan.leaf.num_groups});
    return plan;
  }

  // Two-level schedule: leaf groups sized to fit M, super-groups of
  // `fanout` consecutive leaves carrying the requested granularity.
  // Routing (Algorithm 2) runs at super-group granularity; each
  // super-group is re-cut through scratch into leaf-granular blocks on
  // first fetch, so every level's resident working set respects M.
  const std::size_t k_leaf = std::min<std::size_t>(k_fit, local_v);
  const std::size_t fanout = (k_req + k_leaf - 1) / k_leaf;
  const std::size_t k_super = fanout * k_leaf;

  plan.leaf = make_layout(cfg, local_v, core, k_leaf);
  const std::uint32_t num_leaf = plan.leaf.num_groups;
  const auto num_super =
      static_cast<std::uint32_t>((local_v + k_super - 1) / k_super);
  plan.levels.push_back(GroupLevel{k_leaf, num_leaf});
  plan.levels.push_back(GroupLevel{k_super, num_super});

  // One super-group's receive bound: k_super receivers' gamma budgets
  // packed, plus an underfull tail block per *source* — message staging is
  // flushed per computed leaf group, so there are num_leaf sources.
  plan.super_capacity_blocks = receive_blocks(cfg, core, k_super) +
                               num_leaf + 1;
  // Scratch slab per leaf group for the re-cut blocks.  Re-cutting moves
  // whole chunk records, so a leaf's payload fits in its flat receive
  // bound; the 2x + 1 slack absorbs the packing fragmentation of cutting
  // at super-block boundaries instead of per-destination streams.
  plan.leaf_capacity_blocks =
      2 * receive_blocks(cfg, core, k_leaf) + num_leaf + 2;
  return plan;
}

void LayoutPlanner::apply_auto_tune(SimConfig& cfg) {
  if (!cfg.auto_tune) return;
  // k: back to the planner's own formula (floor(M/slot) with the
  // num_groups >= D clamp) — the k the theorems size everything for.
  cfg.k = 0;
  // Routing: let the store pick per run — in-memory when the post-context
  // budget admits the whole exchange, Algorithm 2's compact scheme
  // otherwise.
  cfg.routing = RoutingMode::automatic;
  // Coalescing is a pure win except under fault injection, where retrying
  // a coalesced run would replay calls for tracks that already succeeded
  // and shift the deterministic fault schedule.
  cfg.coalesce_io = !cfg.faults.enabled();
  // Compute width matters only when the pipeline overlaps compute with
  // I/O; start from the hardware and let GroupTuner trim per superstep.
  if (cfg.pipeline && cfg.compute_threads <= 1) {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 2;
    cfg.compute_threads =
        std::clamp<std::size_t>(hw / 2, std::size_t{2}, std::size_t{8});
  }
}

void LayoutPlanner::export_plan(obs::Registry& reg, const LayoutPlan& plan,
                                const SimConfig& cfg) {
  reg.set_gauge("sim.layout.levels",
                static_cast<double>(plan.levels.size()));
  reg.set_gauge("sim.layout.k", static_cast<double>(plan.leaf.k));
  reg.set_gauge("sim.layout.num_groups",
                static_cast<double>(plan.leaf.num_groups));
  reg.set_gauge("sim.layout.fanout", static_cast<double>(plan.fanout()));
  reg.set_gauge("sim.layout.group_capacity_blocks",
                static_cast<double>(plan.leaf.group_capacity));
  reg.set_gauge("sim.layout.context_slot_bytes",
                static_cast<double>(plan.leaf.context_slot_bytes));
  reg.set_gauge("sim.layout.routing_mem_budget",
                static_cast<double>(plan.leaf.routing_mem_budget));
  reg.set_gauge("sim.layout.auto_tuned", cfg.auto_tune ? 1.0 : 0.0);
  if (plan.hierarchical()) {
    reg.set_gauge("sim.layout.super_k",
                  static_cast<double>(plan.levels[1].k));
    reg.set_gauge("sim.layout.num_super_groups",
                  static_cast<double>(plan.levels[1].num_groups));
    reg.set_gauge("sim.layout.super_capacity_blocks",
                  static_cast<double>(plan.super_capacity_blocks));
    reg.set_gauge("sim.layout.leaf_capacity_blocks",
                  static_cast<double>(plan.leaf_capacity_blocks));
  }
}

std::size_t GroupTuner::recommend(const em::EngineStats& stats,
                                  std::size_t current) {
  const double stall = stats.stall_fraction_since(prev_);
  prev_ = stats;
  std::size_t next = std::clamp(current, min_w_, max_w_);
  // I/O-bound superstep (the issuer spent most of the busiest disk's
  // service time stalled): compute threads are idle ballast — shed one.
  // Compute-bound (almost no stall): the disks are keeping up — widen.
  if (stall > 0.5 && next > min_w_) {
    --next;
  } else if (stall < 0.1 && next < max_w_) {
    ++next;
  }
  if (next != current) ++replans_;
  return next;
}

}  // namespace embsp::sim
