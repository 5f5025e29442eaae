// Algorithm 3 — ParCompoundSuperstep (§5.2) as a rank loop: one rank of the
// p-processor EM-BSP* simulation per DistSimulator instance, communicating
// through a net::Transport.  This is the only simulation loop:
// ParSimulator runs p ranks of it on threads over the in-process loopback
// transport, SeqSimulator is its one-rank case, and `embsp --transport
// socket` runs one rank per worker process.
//
// Each rank owns a private D-disk array and simulates virtual processors
// [rank*v/p, (rank+1)*v/p).  At p = 1 a compound superstep is Algorithm 1
// (SeqCompoundSuperstep, §5.1) exactly: each of the v/k rounds reads its k
// contexts (1a) and its group's reorganized messages (1b) from the disks,
// computes (1c), writes the outgoing messages straight into the D buckets
// (1d) and the contexts back (1e); under a two-level plan messages route
// at super-group granularity.  At p > 1 a compound superstep runs v/(p*k)
// rounds with two-phase randomized routing:
//
//   round j:  fetch local blocks of batch j   → exchange #1 (forward to the
//             destination's owner over the wire),
//             compute the k virtual supersteps,
//             pack per (owner, batch), scatter → exchange #2 (to a uniformly
//             random intermediate rank, Lemma 10),
//             write received blocks to local buckets.
//   step 2:   local SimulateRouting reorganize.
//   boundary: exchange #3 — an all-to-all control record (per-rank cost
//             contribution, continue flag, undelivered message blocks,
//             superstep I/O, rank 0's cancel sample); every rank applies
//             the same commutative reduction, so all ranks append the same
//             SuperstepCost and take the same branch.
//
// With one rank the forward and scatter exchanges would carry nothing, so
// the loop picks its message path from cfg.machine.p alone.
//
// Determinism contract (pinned by golden digests in tests/test_net.cpp,
// tests/test_sim_par.cpp and, for p = 1, tests/test_sim_seq.cpp): for a
// fixed seed, results, SuperstepCosts, IoStats and fault-schedule call
// indices depend neither on the transport nor on thread timing.  The
// invariants that make this hold:
//   * at p > 1 the per-rank RNG replays the master fork loop (fork advances
//     the master, so all p forks are drawn in rank order); at p = 1 the
//     rank draws from cfg.seed itself,
//   * blocks are absorbed and written in source-rank order 0..p-1,
//   * disk arrays use machine-wide drive indices (rank*D + d), keying the
//     deterministic fault schedule per drive,
//   * cost reduction uses max/+ merges, which are commutative, so
//     cross-rank reduction order cannot change the result.
//
// Pipelined execution (cfg.pipeline): each rank runs a double-buffered
// group schedule against its private disks — context (and, at p = 1,
// message arena) prefetch for round r+1 and write-behind for round r-1
// ride under round r's compute, message writes ride a bounded write-behind
// window — and the transport is driven incrementally: forward/scatter
// blocks are post()ed as they materialize and Transport::progress() is
// pumped from the fetch, compute and scatter phases, so wire traffic
// drains while the rank is still computing or waiting on its disks.
// Overlap changes only timing, never content.  With cfg.auto_tune the
// compute-pool width is re-planned at superstep boundaries (GroupTuner).
//
// Failure model:
//   * Transient injected faults are absorbed rank-locally by the retry
//     machinery.
//   * Coordinated superstep recovery (cfg.superstep_recovery): init, the
//     superstep body, the reorganize and collect are recovery units.  A
//     rank whose transfer exhausts its retry budget keeps making the unit's
//     remaining exchanges, each carrying a one-byte "failed" flag, so the
//     exchange schedule stays aligned and a peer can tell a reassembly
//     starved by that failure from a real error.  A one-byte verdict
//     exchange closes the unit: on any failure every rank rolls back to the
//     unit's entry (context epoch, allocators, message chains, RNG) and
//     re-executes, bounded by cfg.max_superstep_retries.
//   * Durable checkpoints (cfg.checkpoint): at a due boundary every rank
//     serializes its own record (save_proc_state), rank 0 gathers the
//     records and publishes them through CheckpointDir, and a barrier
//     follows.  On resume each rank restores its own record.
//   * Anything else aborts the run with a typed error, broadcast to peers
//     via Transport::abort; the attached registry still receives this
//     rank's engine, recovery and fault counters.
#pragma once

#include <algorithm>
#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <optional>

#include "bsp/direct_runtime.hpp"
#include "bsp/program.hpp"
#include "em/disk_array.hpp"
#include "net/transport.hpp"
#include "sim/checkpoint.hpp"
#include "sim/context_store.hpp"
#include "sim/layout_planner.hpp"
#include "sim/message_store.hpp"
#include "sim/obs_hooks.hpp"
#include "sim/requirements.hpp"
#include "sim/sim_config.hpp"
#include "util/thread_pool.hpp"

namespace embsp::sim {

class DistSimulator {
 public:
  /// `transport` must outlive the simulator; its size() must equal
  /// cfg.machine.p and its rank() selects which processor this instance
  /// simulates.
  DistSimulator(SimConfig cfg, net::Transport& transport,
                std::function<std::unique_ptr<em::Backend>(std::size_t)>
                    backend = nullptr);

  /// Runs this rank to completion.  `collect` receives all v final states
  /// (an allgather: every rank hands its driver the complete output); an
  /// empty `collect` skips them, the rank still ships its own.  At p = 1
  /// each state is handed over group by group as it is read back, so at
  /// most k are resident; after a rollback of that last recovery unit
  /// `collect` may see a state again.
  template <bsp::Program P>
  SimResult run(
      const P& prog,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect);

  [[nodiscard]] const em::DiskArray& disks() const { return *disks_; }
  [[nodiscard]] const SimConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint32_t rank() const { return tp_->rank(); }

 private:
  friend class ParSimulator;

  /// The SuperstepCost fields the cross-rank reduction merges.
  /// max_wire_received stays zero, and only the p = 1 record carries
  /// max_wire_sent.
  static void merge_cost(bsp::SuperstepCost& into,
                         const bsp::SuperstepCost& c) {
    into.max_work = std::max(into.max_work, c.max_work);
    into.max_wire_sent = std::max(into.max_wire_sent, c.max_wire_sent);
    into.total_work += c.total_work;
    into.max_bytes_sent = std::max(into.max_bytes_sent, c.max_bytes_sent);
    into.max_bytes_received =
        std::max(into.max_bytes_received, c.max_bytes_received);
    into.max_packets_sent =
        std::max(into.max_packets_sent, c.max_packets_sent);
    into.max_packets_received =
        std::max(into.max_packets_received, c.max_packets_received);
    into.total_bytes += c.total_bytes;
    into.num_messages += c.num_messages;
  }

  SimConfig cfg_;
  net::Transport* tp_;
  std::unique_ptr<em::DiskArray> disks_;
  std::shared_ptr<em::FaultCounters> fault_counters_;
  /// Set by ParSimulator, whose ranks share one address space: `collect`
  /// receives only this rank's own final states and none are shipped.
  bool own_states_only_ = false;
};

// ---------------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------------

template <bsp::Program P>
SimResult DistSimulator::run(
    const P& prog,
    const std::function<typename P::State(std::uint32_t)>& make_state,
    const std::function<void(std::uint32_t, typename P::State&)>& collect) {
  using State = typename P::State;
  cfg_.machine.validate();
  const std::uint32_t p = cfg_.machine.p;
  const std::uint32_t v = cfg_.machine.bsp.v;
  const std::uint32_t local_v = v / p;
  const std::uint32_t me = tp_->rank();
  // One rank: Algorithm 1's message path — no forward, no scatter.
  const bool local = p == 1;

  // At p = 1 the planner's two-level plan is honored: contexts are walked
  // in leaf groups sized to fit M, while messages route at super-group
  // granularity and are re-cut into leaf blocks through scratch on fetch.
  // At p > 1 the plan is consumed at leaf granularity: forwarding inspects
  // every block's owner per round, which already makes rounds leaf-sized —
  // the legality win of a hierarchical plan — while routing stays per leaf
  // batch (super-packed blocks would mix batches across owners).
  const LayoutPlan plan = LayoutPlanner::plan(cfg_, local_v);
  SimLayout layout = plan.leaf;
  const bool hier = local && plan.hierarchical();
  if (!local) {
    // Extra receive capacity per batch: random scattering is balanced only
    // in expectation, and per-(source, destination-owner) tail blocks add
    // fragmentation.  Overflow is detected at runtime with a clear error.
    layout.group_capacity = layout.group_capacity * 2 + 4 * p + 4;
    if (layout.total_capacity != 0) {
      layout.total_capacity =
          layout.total_capacity * 2 + layout.num_groups * (4 * p + 4);
    }
  }
  const auto k = static_cast<std::uint32_t>(layout.k);
  const std::uint32_t rounds = layout.num_groups;
  // Virtual processors per routing destination group at p = 1: the
  // super-group size in a hierarchical plan, k itself in a flat one.
  const auto route_k = static_cast<std::uint32_t>(plan.levels.back().k);

  em::TrackAllocators alloc(disks_->num_disks());
  ContextStore contexts(*disks_, alloc, local_v, cfg_.mu,
                        /*journaled=*/cfg_.superstep_recovery, me * local_v);
  MessageStoreConfig mcfg;
  mcfg.num_groups = hier ? plan.levels.back().num_groups : rounds;
  mcfg.group_capacity_blocks =
      hier ? plan.super_capacity_blocks : layout.group_capacity;
  mcfg.total_capacity_blocks = hier ? 0 : layout.total_capacity;
  mcfg.mode = cfg_.routing;
  mcfg.max_message_bytes = cfg_.gamma;
  mcfg.memory_budget_bytes = layout.routing_mem_budget;
  if (hier) {
    mcfg.leaf_fanout = plan.fanout();
    mcfg.num_leaf_groups = rounds;
    mcfg.leaf_capacity_blocks = plan.leaf_capacity_blocks;
    mcfg.leaf_of = [k](std::uint32_t dst) { return dst / k; };
  }
  MessageStore messages(*disks_, alloc, mcfg);
  // Per-rank RNG: replay the master fork loop — fork() advances the master,
  // so every rank draws all p forks in order and keeps its own.  A single
  // rank draws from the seed itself.
  util::Rng rng(cfg_.seed);
  if (!local) {
    util::Rng master(cfg_.seed);
    for (std::uint32_t i = 0; i < p; ++i) {
      util::Rng f = master.fork(i + 1);
      if (i == me) rng = f;
    }
  }
  std::uint64_t rr_scatter = 0;  ///< deterministic-mode scatter cursor
  PhaseIo phase_io;
  RoutingStats routing;
  std::uint64_t comm_bytes_this_step = 0;
  std::uint64_t max_comm_bytes_step = 0;
  std::uint64_t arena_peak = 0;  ///< peak arena residency
  bool want_continue = false;

  SimResult result;
  result.group_size = layout.k;
  // Collected final states, from virtual processor `state_base` on.  A
  // single rank hands its states to `collect` as it reads them back.
  const std::uint32_t state_base = own_states_only_ ? me * local_v : 0;
  std::vector<State> final_states(!collect || local ? 0
                                  : own_states_only_ ? local_v
                                                     : v);
  auto& disks = *disks_;
  obs::Recorder* const rec = cfg_.recorder;
  // Every rank exports its own engine and transport metrics; rank 0 alone
  // the run-wide ones, so ranks that share a Recorder count them once.
  const bool exports_run = me == 0;
  const std::string engine_prefix =
      local ? "engine." : "proc." + std::to_string(me) + ".engine.";

  // Counters the fresh engine and fault tally restart at zero, carried over
  // from the checkpointed run so final totals match an uninterrupted run.
  std::uint64_t base_io_retries = 0;
  std::uint64_t base_io_giveups = 0;
  em::FaultCounts base_faults;
  // This rank's retries, giveups and injected faults (they add up across
  // ranks; rollback and checkpoint counts are the same on every rank).
  const auto local_recovery = [&] {
    RecoveryStats rs;
    rs.io_retries = base_io_retries + disks.engine_stats().total_retries();
    rs.io_giveups = base_io_giveups + disks.engine_stats().total_giveups();
    rs.faults = base_faults;
    if (fault_counters_ != nullptr) rs.faults += em::snapshot(*fault_counters_);
    return rs;
  };
  const auto owner_of = [local_v](std::uint32_t vp) { return vp / local_v; };
  // Destination batch of a virtual processor: its round index on its owner.
  const auto batch_of = [local_v, k](std::uint32_t vp) {
    return (vp % local_v) / k;
  };

  // Pipelined double-buffered staging, indexed by round parity.  Declared
  // OUTSIDE the try: stack unwinding must not destroy buffers that
  // in-flight transfers still reference — the catch blocks below drain the
  // disk array first.
  ContextStore::PendingIo ctx_read[2];
  ContextStore::PendingIo ctx_write[2];
  MessageStore::PendingFetch msg_fetch[2];  // p = 1 only
  // Unregisters kernel fixed buffers on any exit; declared after the slots
  // so it runs before their destruction (the catch blocks have drained by
  // then).  A stale registration could otherwise alias a future run's
  // allocations at the same addresses.
  struct RegGuard {
    em::DiskArray* d = nullptr;
    ~RegGuard() {
      if (d != nullptr) d->register_io_buffers({});
    }
  } reg_guard;
  std::unique_ptr<util::ComputePool> pool;
  const bool pipelined = cfg_.pipeline;
  // Self-tuning: re-plan the compute-pool width at superstep boundaries
  // from the engine's stall/busy deltas.  Width is the one knob that is
  // safe to change mid-run — the on-disk layout and the call-indexed fault
  // schedule never depend on it, and costs are reduced in vproc order.
  std::optional<GroupTuner> tuner;
  if (cfg_.auto_tune && pipelined) {
    tuner.emplace(/*min_width=*/1,
                  /*max_width=*/std::max<std::size_t>(cfg_.compute_threads,
                                                      8));
  }
  // Settles every in-flight token and resets the staging slots: required
  // before a rollback restores snapshots (a late-landing write would
  // corrupt the restored state) and before unwinding past the slots.
  const auto quiesce = [&] {
    disks.drain();
    messages.abandon_inflight();
    for (int s = 0; s < 2; ++s) {
      ctx_read[s].reset();
      ctx_write[s].reset();
      msg_fetch[s].active = false;
      msg_fetch[s].tokens.clear();
    }
  };
  // A failed run still leaves this rank's counters in the registry: that
  // is when a post-mortem needs them.
  const auto export_abort = [&]() noexcept {
    if (rec == nullptr) return;
    try {
      auto& reg = rec->registry;
      disks.harvest_backend_stats();
      em::export_metrics(disks.engine_stats(), reg, engine_prefix);
      RecoveryStats rs = local_recovery();
      if (exports_run) {
        rs.superstep_rollbacks = result.recovery.superstep_rollbacks;
        rs.reorganize_rollbacks = result.recovery.reorganize_rollbacks;
        rs.checkpoints = result.recovery.checkpoints;
        rs.resume_epoch = result.recovery.resume_epoch;
        reg.add("sim.supersteps", result.costs.num_supersteps());
      }
      export_recovery_stats(reg, rs, /*gauges=*/exports_run);
    } catch (...) {  // never mask the error being propagated
    }
  };

  try {
    // --- Durable checkpoint/restart (see sim/checkpoint.hpp) ----------------
    // Every rank reads the manifest and its own record before the startup
    // exchange, so no rank can observe an epoch rank 0 publishes later.
    const std::uint64_t config_fp = config_fingerprint(cfg_);
    std::optional<CheckpointDir> ckpt;
    bool ckpt_write = false;
    std::optional<CheckpointDir::Loaded> loaded;
    if (cfg_.checkpoint.enabled()) {
      ckpt.emplace(cfg_.checkpoint.dir);
      ckpt_write = true;
      if (cfg_.checkpoint.resume) {
        const auto m = ckpt->manifest();
        if (m.has_value() && m->run_index > cfg_.checkpoint.run_index) {
          // The checkpointed process crashed in a *later* run of this
          // workload, so this run completed before the crash: re-execute it
          // and leave the later run's checkpoint alone.
          ckpt_write = false;
        } else {
          loaded = ckpt->load(cfg_.checkpoint.run_index, config_fp);
        }
      }
    }
    std::size_t start_step = 0;
    if (loaded.has_value()) {
      util::Reader r(loaded->payload);
      start_step = static_cast<std::size_t>(r.read<std::uint64_t>());
      result.costs.supersteps = r.read_vector<bsp::SuperstepCost>();
      result.per_superstep_io = r.read_vector<em::IoStats>();
      result.recovery.superstep_rollbacks = r.read<std::uint64_t>();
      result.recovery.reorganize_rollbacks = r.read<std::uint64_t>();
      if (r.read<std::uint32_t>() != p) {
        throw std::runtime_error("checkpoint: processor count mismatch");
      }
      for (std::uint32_t i = 0; i < p; ++i) {
        const auto n = static_cast<std::size_t>(r.read<std::uint64_t>());
        const auto bytes = r.read_bytes(n);
        if (i != me) continue;
        util::Reader pr(bytes);
        base_io_retries = pr.read<std::uint64_t>();
        base_io_giveups = pr.read<std::uint64_t>();
        base_faults = pr.read<em::FaultCounts>();
        rr_scatter = pr.read<std::uint64_t>();
        max_comm_bytes_step = pr.read<std::uint64_t>();
        arena_peak = pr.read<std::uint64_t>();
        phase_io = pr.read<PhaseIo>();
        routing = pr.read<RoutingStats>();
        load_proc_state(pr, disks, alloc, contexts, messages, rng);
        if (!pr.exhausted()) {
          throw std::runtime_error(
              "checkpoint: trailing bytes in processor record");
        }
      }
      if (!r.exhausted()) {
        throw std::runtime_error("checkpoint: trailing bytes in payload");
      }
      result.recovery.resume_epoch = loaded->epoch;
    }

    if (pipelined) {
      // Bounded write-behind: at most 4 message write cycles (<= 4*D
      // blocks) ride behind the computing round before writes throttle.
      messages.enable_write_behind(4);
      if (cfg_.compute_threads > 1) {
        pool = std::make_unique<util::ComputePool>(cfg_.compute_threads - 1);
      }
      // Kernel fixed buffers (uring engine): the context slots are the
      // run's long-lived I/O staging — size them to their steady-state
      // maximum up front and offer them to the backends, so context
      // transfers go out as READ_FIXED/WRITE_FIXED SQEs.  Non-uring
      // backends decline the hint.  Message slots grow on demand: their
      // bound k*gamma can far exceed what a round actually receives.
      const std::size_t ctx_bytes = layout.k * layout.context_slot_bytes;
      std::vector<std::span<std::byte>> regions;
      for (int s = 0; s < 2; ++s) {
        ctx_read[s].buf.resize(ctx_bytes);
        ctx_write[s].buf.resize(ctx_bytes);
        regions.push_back({ctx_read[s].buf.data(), ctx_read[s].buf.size()});
        regions.push_back({ctx_write[s].buf.data(), ctx_write[s].buf.size()});
      }
      if (disks.register_io_buffers(regions) > 0) reg_guard.d = &disks;
    }
    // Buffers reused across rounds and supersteps.  The round's contexts
    // are views into the read staging slot; fetched payloads live in the
    // inbox arena (reset per round — the previous round's compute has
    // consumed its refs), and outgoing refs point into the per-vproc outbox
    // arenas, which stay alive until the write phase has packed them.
    ContextStore::Views ctx_views;
    std::vector<State> states;
    util::Arena inbox_arena;
    std::vector<bsp::MessageRef> incoming_refs;
    std::vector<std::vector<bsp::MessageRef>> inbox_refs;
    std::vector<bsp::MessageRef> outgoing_refs;
    std::vector<bsp::Outbox> outboxes;

    // post() keeps fragment spans alive until exchange() returns — the
    // socket backend gathers them into the wire at pump time — but the
    // spans this loop posts are transient (fetch callbacks, pack_blocks
    // scratch).  A transport that copies on post takes them as they are;
    // otherwise they are staged into owned buffers dropped after each
    // exchange.  Growing the outer vector may move the inner vectors; their
    // heap storage stays put, so spans posted earlier remain valid.
    std::vector<std::vector<std::byte>> wire_stage;
    const bool stage_posts = !tp_->copies_on_post();
    const auto post_transient = [&](std::uint32_t dst,
                                    std::span<const std::byte> bytes) {
      if (stage_posts) {
        wire_stage.emplace_back(bytes.begin(), bytes.end());
        bytes = wire_stage.back();
      }
      tp_->post(dst, bytes);
    };

    // --- Coordinated recovery (cfg_.superstep_recovery) --------------------
    // §5.1: the on-disk state at a superstep boundary is a consistent
    // checkpoint.  On an unrecoverable IoError (a transfer that exhausted
    // its retry budget) the in-memory metadata (RNG, track allocators,
    // message chains, journaled context epoch) is rolled back to the unit's
    // entry and the unit re-executes.  Re-execution replays the exact same
    // RNG draws and track placements, so its writes overwrite whatever the
    // abandoned attempt left behind — torn blocks included.
    const bool coordinated = cfg_.superstep_recovery;
    std::size_t unit_exchanges = 0;  ///< exchanges made in the current unit
    bool peer_failed = false;        ///< a peer flagged a failure this unit
    static constexpr std::byte kFailed[1] = {std::byte{1}};
    // Every exchange inside a recovery unit goes through here.  A failed
    // rank's flag is the last message it posts to a peer and the only one
    // byte long (blocks are at least kMinBlockSize), so it is stripped
    // before the caller sees the blocks.
    const auto unit_exchange = [&] {
      auto got = tp_->exchange();
      wire_stage.clear();
      ++unit_exchanges;
      if (coordinated) {
        for (auto& from : got) {
          if (!from.empty() && from.back().size() == sizeof(kFailed)) {
            peer_failed = true;
            from.pop_back();
          }
        }
      }
      return got;
    };
    // After a failure: make the unit's remaining exchanges, flagged, so
    // every rank reaches the verdict on the same exchange.
    const auto fail_forward = [&](std::size_t unit_total) {
      while (unit_exchanges < unit_total) {
        for (std::uint32_t q = 0; q < p; ++q) {
          tp_->post(q, std::span<const std::byte>(kFailed));
        }
        (void)unit_exchange();
      }
    };
    // The unit's commit point: all ranks see the same OR of the failures.
    const auto verdict = [&](bool failed) {
      const std::byte mine[1] = {failed ? std::byte{1} : std::byte{0}};
      for (std::uint32_t q = 0; q < p; ++q) {
        tp_->post(q, std::span<const std::byte>(mine));
      }
      const auto got = tp_->exchange();
      bool any = false;
      for (std::uint32_t src = 0; src < p; ++src) {
        if (got[src].size() != 1 || got[src][0].size() != 1) {
          throw net::PeerFailedError(
              "DistSimulator: malformed verdict from rank " +
              std::to_string(src));
        }
        any = any || got[src][0][0] != std::byte{0};
      }
      return any;
    };
    // Runs one recovery unit of `unit_total` exchanges.  Without
    // coordination that is just the unit.  With it, the unit re-executes
    // from its entry snapshots until a unanimous clean verdict, bounded by
    // cfg_.max_superstep_retries.  Its reads touch only committed state (the
    // arena of the previous reorganize, the committed context bank), so a
    // re-execution sees exactly the original inputs.
    const auto run_unit = [&](const char* name, std::uint64_t& rollbacks,
                              std::size_t unit_total, bool body,
                              auto&& unit) {
      if (!coordinated) {
        unit();
        return;
      }
      for (std::size_t attempt = 0;; ++attempt) {
        const util::Rng rng_ckpt = rng;
        const std::uint64_t rr_ckpt = rr_scatter;
        const auto alloc_ckpt = alloc.snapshot();
        const auto msg_ckpt = messages.snapshot();
        unit_exchanges = 0;
        peer_failed = false;
        std::exception_ptr unit_error;
        try {
          unit();
        } catch (const net::NetError&) {
          throw;  // the mesh itself failed: nothing to roll back to
        } catch (const em::IoError&) {
          // Primary failure: a transfer exhausted its retry budget (or a
          // checksum failed).
          unit_error = std::current_exception();
          quiesce();
          fail_forward(unit_total);
        } catch (...) {
          // Secondary failure: a peer's flagged failure starved this rank
          // (e.g. an incomplete reassembly).  Anything else is real.
          if (!peer_failed) throw;
          quiesce();
          fail_forward(unit_total);
        }
        if (!verdict(unit_error != nullptr)) {
          if (body && contexts.journaled()) contexts.commit_epoch();
          return;
        }
        quiesce();
        rng = rng_ckpt;
        rr_scatter = rr_ckpt;
        alloc.restore(alloc_ckpt);
        messages.restore(msg_ckpt);
        if (body) contexts.discard_epoch();
        if (attempt >= cfg_.max_superstep_retries) {
          // Every rank sees the same attempt count: the failing rank
          // propagates its original error, the others unwind as its peers.
          if (unit_error != nullptr) std::rethrow_exception(unit_error);
          throw net::PeerFailedError(std::string("DistSimulator: a peer "
                                                 "exhausted its ") +
                                     name + " retry budget");
        }
        ++rollbacks;
        if (exports_run) record_rollback(rec, name, me);
      }
    };

    // Initial contexts for this rank's virtual processors, one group at a
    // time (never more than k contexts in memory — the EM discipline
    // applies to setup too) — a recovery unit of its own.  Skipped on
    // resume: the restored context banks already hold the checkpointed
    // boundary's state.
    if (!loaded.has_value()) {
      run_unit("superstep", result.recovery.superstep_rollbacks, 0,
               /*body=*/true, [&] {
        ObsPhase phase(rec, "init", disks, &phase_io.init, me);
        for (std::uint32_t r = 0; r < rounds; ++r) {
          const std::uint32_t first = r * k;
          const std::uint32_t count = std::min(k, local_v - first);
          // Serialize straight into the store's block-aligned staging.
          contexts.write(first, count,
                         [&](std::uint32_t ctx, util::Writer& w) {
                           make_state(me * local_v + ctx).serialize(w);
                         });
        }
      });
    }
    // Startup alignment: validates the mesh before the first superstep and
    // keeps slow-starting peers from eating into round deadlines.
    (void)tp_->exchange();

    // Per-vproc compute results, filled by (possibly concurrent)
    // superstep() calls and reduced sequentially in vproc order below, so
    // cost totals are independent of the compute interleaving.
    struct VpStats {
      bool cont = false;
      std::uint64_t work = 0;
      std::uint64_t sent_packets = 0;
      std::uint64_t sent_wire = 0;
      std::uint64_t bytes_sent = 0;
      std::uint64_t num_messages = 0;
      std::uint64_t recv_packets = 0;
      std::uint64_t recv_bytes = 0;
      std::uint64_t recv_wire = 0;
    };
    std::vector<VpStats> vp;
    // Read-ahead of round r: its contexts, and at p = 1 its arena blocks.
    auto submit_prefetch = [&](std::uint32_t r) {
      const std::uint32_t rf = r * k;
      const std::uint32_t rc = std::min(k, local_v - rf);
      contexts.read_submit(rf, rc, ctx_read[r & 1]);
      if (local) messages.fetch_group_submit(r, msg_fetch[r & 1]);
    };
    // Routing destination group of a message at p = 1.
    const auto group_of = [route_k](std::uint32_t dst) {
      return dst / route_k;
    };
    // The body's exchanges: forward and scatter per round at p > 1.
    const std::size_t body_exchanges = local ? 0 : 2 * rounds;

    for (std::size_t step = start_step;; ++step) {
      if (step >= cfg_.max_supersteps) {
        throw std::runtime_error(
            "DistSimulator: superstep limit exceeded (runaway program?)");
      }
      const em::IoStats superstep_before = disks.stats();
      bsp::SuperstepCost local_step_cost;
      run_unit("superstep", result.recovery.superstep_rollbacks,
               body_exchanges, /*body=*/true, [&] {
        want_continue = false;
        comm_bytes_this_step = 0;
        local_step_cost = bsp::SuperstepCost{};
        contexts.set_superstep(step);
        if (pipelined) submit_prefetch(0);

        for (std::uint32_t round = 0; round < rounds; ++round) {
          const std::uint32_t first = round * k;
          const std::uint32_t count = std::min(k, local_v - first);
          const int cur = static_cast<int>(round & 1);
          // The previous round's compute has consumed its refs, so the
          // inbox arena can recycle before this round's messages fill it.
          inbox_arena.reset();

          if (!local) {
            // --- Fetch: read local blocks of this batch, forward to
            // owners.  Each block is handed to the transport the moment
            // the disks surface it and progress() pushes it toward the
            // wire while the remaining blocks are still being read.
            {
              ObsPhase phase(rec, "fetch_msg", disks, &phase_io.fetch_msg,
                             me);
              messages.fetch_group_blocks(
                  round, [&](std::span<const std::byte> block) {
                    if (is_dummy_block(block)) return;
                    // All chunks in a block share one destination virtual
                    // processor group (they were packed per owner) — peek
                    // at the first chunk's dst to find the owner.
                    util::Reader r(block.subspan(kBlockHeaderBytes));
                    r.read<std::uint32_t>();  // src
                    const auto dst = r.read<std::uint32_t>();
                    const auto owner = owner_of(dst);
                    post_transient(owner, block);
                    if (owner != me) comm_bytes_this_step += block.size();
                    tp_->progress();
                  });
            }
            const auto forward = unit_exchange();
            Reassembler reasm(inbox_arena, cfg_.gamma);
            for (std::uint32_t src = 0; src < p; ++src) {
              for (const auto& block : forward[src]) {
                reasm.absorb(block, round);
              }
            }
            incoming_refs = reasm.take_refs();
          }

          // --- Steps 1(a) and, at p = 1, 1(b): contexts, then messages.
          {
            ObsPhase phase(rec, pipelined ? "prefetch_ctx" : "fetch_ctx",
                           disks, &phase_io.fetch_ctx, me);
            ctx_views = pipelined ? contexts.read_wait(ctx_read[cur])
                                  : contexts.read(first, count);
          }
          if (local) {
            ObsPhase phase(rec, pipelined ? "prefetch_msg" : "fetch_msg",
                           disks, &phase_io.fetch_msg, me);
            incoming_refs =
                pipelined
                    ? messages.fetch_group_wait_refs(msg_fetch[cur],
                                                     inbox_arena)
                    : messages.fetch_group_refs(round, inbox_arena);
          }
          // Read-ahead: round r+1's transfers overlap round r's compute.
          if (pipelined && round + 1 < rounds) submit_prefetch(round + 1);
          // A fast peer may already be scattering this round's blocks at
          // us; buffering them now shortens the exchange after the pack.
          tp_->progress();

          if (inbox_refs.size() < count) inbox_refs.resize(count);
          for (std::uint32_t i = 0; i < count; ++i) inbox_refs[i].clear();
          for (const auto& m : incoming_refs) {
            const std::uint32_t local_dst = m.dst - me * local_v;
            if (owner_of(m.dst) != me || local_dst < first ||
                local_dst >= first + count) {
              throw std::runtime_error(
                  "DistSimulator: message routed to the wrong group");
            }
            inbox_refs[local_dst - first].push_back(m);
          }

          // --- Step 1(c): run the k virtual supersteps.
          states.clear();
          states.resize(count);
          vp.assign(count, VpStats{});
          outboxes.clear();
          for (std::uint32_t i = 0; i < count; ++i) {
            outboxes.emplace_back(me * local_v + first + i, v);
          }
          outgoing_refs.clear();
          {
            // Wall-clock-only span: compute does no I/O.
            ObsPhase compute_phase(rec, "compute", disks, nullptr, me);
            // Each task touches only index-i data; costs are reduced below
            // in vproc order, so the totals are identical inline or pooled.
            auto task = [&](std::size_t i) {
              util::Reader r(ctx_views[i]);
              states[i].deserialize(r);
              bsp::Inbox in(std::move(inbox_refs[i]));
              bsp::WorkMeter m;
              bsp::ProcEnv env{
                  me * local_v + first + static_cast<std::uint32_t>(i), v,
                  &m};
              VpStats& s = vp[i];
              s.cont = prog.superstep(step, env, states[i], in, outboxes[i]);
              s.work = m.total();
              for (const auto& msg : outboxes[i].messages()) {
                s.sent_packets +=
                    bsp::packets_for(msg.size_bytes(), cfg_.machine.bsp.b);
                s.sent_wire += bsp::wire_bytes(msg.size_bytes());
              }
              s.bytes_sent = outboxes[i].total_bytes();
              s.num_messages = outboxes[i].messages().size();
              for (const auto& msg : in.all()) {
                s.recv_packets +=
                    bsp::packets_for(msg.size_bytes(), cfg_.machine.bsp.b);
                s.recv_bytes += msg.size_bytes();
                s.recv_wire += bsp::wire_bytes(msg.size_bytes());
              }
            };
            if (pool != nullptr) {
              pool->run(count, task);
            } else {
              for (std::uint32_t i = 0; i < count; ++i) task(i);
            }
          }
          // Sequential reduction in vproc order — cost accounting identical
          // to DirectRuntime's (and independent of the compute
          // interleaving).
          bsp::SuperstepCost& cost = local_step_cost;
          for (std::uint32_t i = 0; i < count; ++i) {
            const VpStats& s = vp[i];
            want_continue = want_continue || s.cont;
            cost.max_work = std::max(cost.max_work, s.work);
            cost.total_work += s.work;
            check_gamma(me * local_v + first + i, step, s.sent_wire,
                        s.recv_wire, cfg_.gamma);
            cost.max_bytes_sent = std::max(cost.max_bytes_sent, s.bytes_sent);
            cost.max_packets_sent =
                std::max(cost.max_packets_sent, s.sent_packets);
            // Only the one-rank record carries the wire maximum; the p > 1
            // reduction is pinned without it (ROADMAP item 4).
            if (local) {
              cost.max_wire_sent = std::max(cost.max_wire_sent, s.sent_wire);
            }
            cost.max_bytes_received =
                std::max(cost.max_bytes_received, s.recv_bytes);
            cost.max_packets_received =
                std::max(cost.max_packets_received, s.recv_packets);
            cost.total_bytes += s.bytes_sent;
            cost.num_messages += s.num_messages;
            // Refs stay valid through the write phase below: the outboxes
            // (and their arenas) outlive this round's writing.
            for (const auto& msg : outboxes[i].messages()) {
              outgoing_refs.push_back(msg);
            }
            arena_peak = std::max<std::uint64_t>(
                arena_peak, outboxes[i].arena_high_water());
          }
          arena_peak =
              std::max<std::uint64_t>(arena_peak, inbox_arena.high_water());

          // --- Step 1(d) at p = 1: cut the messages into blocks straight
          // into the D buckets, before the contexts go back.
          if (local) {
            ObsPhase phase(rec, pipelined ? "writeback_msg" : "write_msg",
                           disks, &phase_io.write_msg, me);
            messages.write_message_refs(outgoing_refs, group_of, rng);
          }

          // --- Step 1(e): write the contexts back.
          {
            ObsPhase phase(rec, pipelined ? "writeback_ctx" : "write_ctx",
                           disks, &phase_io.write_ctx, me);
            auto emit = [&](std::uint32_t ctx, util::Writer& w) {
              states[ctx - first].serialize(w);
            };
            if (pipelined) {
              // Retire round r-2's write-backs, then submit round r's
              // against the image round r read; the writes overlap the
              // following rounds' compute.
              contexts.write_wait(ctx_write[cur]);
              contexts.write_submit(first, count, emit, ctx_write[cur],
                                    ctx_read[cur]);
            } else {
              contexts.write(first, count, emit);
            }
          }
          if (local) continue;

          // --- Writing at p > 1: pack per (owner, batch), scatter randomly.
          {
            std::vector<std::uint64_t> dest_keys;
            std::vector<std::vector<bsp::MessageRef>> by_dest;
            for (const auto& m : outgoing_refs) {
              const std::uint64_t key =
                  (static_cast<std::uint64_t>(owner_of(m.dst)) << 32) |
                  batch_of(m.dst);
              const auto it =
                  std::find(dest_keys.begin(), dest_keys.end(), key);
              const auto slot =
                  static_cast<std::size_t>(it - dest_keys.begin());
              if (it == dest_keys.end()) {
                dest_keys.push_back(key);
                by_dest.emplace_back();
              }
              by_dest[slot].push_back(m);
            }
            // Random intermediate (Lemma 10) — or round robin when the
            // routing is deterministic.
            const auto scatter_block = [&](std::span<const std::byte> block) {
              const auto target = static_cast<std::uint32_t>(
                  cfg_.routing == RoutingMode::deterministic
                      ? (me + rr_scatter++) % p
                      : rng.below(p));
              post_transient(target, block);
              if (target != me) comm_bytes_this_step += block.size();
              // Sealed blocks go to the wire while the pack continues.
              tp_->progress();
            };
            for (std::size_t s = 0; s < by_dest.size(); ++s) {
              const auto batch =
                  static_cast<std::uint32_t>(dest_keys[s] & 0xFFFFFFFFu);
              pack_blocks(by_dest[s], batch, disks.block_size(),
                          scatter_block);
            }
          }
          auto scattered = unit_exchange();

          // --- Receive scattered blocks, write them to local buckets in
          // source-rank order (the write_block RNG draws must land on the
          // same call indices whatever the arrival timing).
          {
            ObsPhase phase(rec, "write_msg", disks, &phase_io.write_msg, me);
            for (std::uint32_t src = 0; src < p; ++src) {
              for (auto& block : scattered[src]) {
                messages.write_block(std::move(block), rng);
              }
            }
          }
        }

        if (pipelined) {
          // Drain the pipeline before reorganizing: the last two rounds'
          // context write-backs and every in-flight message write cycle.
          {
            ObsPhase phase(rec, "writeback_ctx", disks, &phase_io.write_ctx,
                           me);
            contexts.write_wait(ctx_write[rounds & 1]);
            contexts.write_wait(ctx_write[(rounds + 1) & 1]);
          }
          ObsPhase phase(rec, "writeback_msg", disks, &phase_io.write_msg,
                         me);
          messages.quiesce();
        }
      });

      // --- Step 2: local SimulateRouting.  Its own recovery unit: it drains
      // the bucket chains destructively and overwrites the arena (this
      // superstep's input), so its snapshot is taken at its entry — after
      // the body committed.  Consolidation and arena writes go to fixed
      // locations, hence replaying them is idempotent.
      RoutingStats attempt_routing;
      run_unit("reorganize", result.recovery.reorganize_rollbacks, 0,
               /*body=*/false, [&] {
        attempt_routing = RoutingStats{};
        ObsPhase phase(rec, "reorganize", disks, &phase_io.reorganize, me);
        // At p > 1 the last partial write cycle goes out before any
        // padding; at p = 1 reorganize() pads it.
        if (!local) messages.flush(rng);
        attempt_routing += messages.reorganize(rng);
      });
      routing += attempt_routing;
      max_comm_bytes_step =
          std::max(max_comm_bytes_step, comm_bytes_this_step);

      // --- Superstep boundary: all-to-all control record.  Every rank
      // computes the same reduction, so the cost log, the continue branch,
      // the undelivered-message check and the cancel branch stay in
      // lockstep without a coordinator.
      {
        util::Writer w;
        w.write<bsp::SuperstepCost>(local_step_cost);
        w.write<std::uint8_t>(want_continue ? 1 : 0);
        // Blocks reorganized but not yet fetched (counted at routing-group
        // granularity, so valid under a two-level plan too): messages
        // sent in a final superstep have no receiver.
        w.write<std::uint64_t>(messages.undelivered_real_blocks());
        w.write<em::IoStats>(disks.stats().since(superstep_before));
        const bool cancel_sample =
            me == 0 && cfg_.cancel != nullptr &&
            cfg_.cancel->load(std::memory_order_relaxed);
        w.write<std::uint8_t>(cancel_sample ? 1 : 0);
        const auto record = w.take();
        for (std::uint32_t q = 0; q < p; ++q) {
          tp_->post(q, std::span<const std::byte>(record));
        }
        auto controls = tp_->exchange();
        bsp::SuperstepCost step_cost;
        em::IoStats step_io;
        bool any = false;
        bool cancel_seen = false;
        std::uint64_t undelivered = 0;
        for (std::uint32_t src = 0; src < p; ++src) {
          if (controls[src].size() != 1) {
            throw net::PeerFailedError(
                "DistSimulator: malformed control record from rank " +
                std::to_string(src));
          }
          util::Reader r(controls[src][0]);
          merge_cost(step_cost, r.read<bsp::SuperstepCost>());
          any = any || r.read<std::uint8_t>() != 0;
          undelivered += r.read<std::uint64_t>();
          // Per-superstep I/O of the busiest rank, as for total_io.
          const auto io = r.read<em::IoStats>();
          if (io.parallel_ios >= step_io.parallel_ios) step_io = io;
          const bool cancel = r.read<std::uint8_t>() != 0;
          if (src == 0) cancel_seen = cancel;
        }
        // Every rank holds the same reduction, so all of them throw
        // together.
        check_exchange(step, step_cost, cfg_.exchange);
        result.costs.supersteps.push_back(step_cost);
        result.per_superstep_io.push_back(step_io);
        if (!any && undelivered != 0) {
          throw std::runtime_error(
              "DistSimulator: messages sent in the final superstep were "
              "never received");
        }

        // Adapting between supersteps keeps the call-indexed fault
        // schedule aligned within each superstep run; recreating the pool
        // is the adaptation mechanism (its threads hold no simulation
        // state).
        if (tuner.has_value() && any) {
          const std::size_t width = pool != nullptr ? pool->width() : 1;
          const std::size_t next =
              tuner->recommend(disks.engine_stats(), width);
          if (next != width) {
            pool.reset();
            if (next > 1) pool = std::make_unique<util::ComputePool>(next - 1);
          }
        }

        // --- Durability point (§5.1): the reorganize committed this
        // superstep's state, so the disks hold a consistent snapshot.
        if (ckpt.has_value() && ckpt_write && any &&
            (cancel_seen || (step + 1) % cfg_.checkpoint.every == 0)) {
          // Capture is parallel — each rank serializes its own disks
          // (off-model: no IoStats, no fault draws); rank 0 publishes, and
          // the barrier after it keeps every rank behind a durable epoch.
          util::Writer cw;
          const RecoveryStats mine = local_recovery();
          cw.write<std::uint64_t>(mine.io_retries);
          cw.write<std::uint64_t>(mine.io_giveups);
          cw.write<em::FaultCounts>(mine.faults);
          cw.write<std::uint64_t>(rr_scatter);
          cw.write<std::uint64_t>(max_comm_bytes_step);
          cw.write<std::uint64_t>(arena_peak);
          cw.write<PhaseIo>(phase_io);
          // The distribution passes so far: a resumed store counts anew.
          RoutingStats routing_so_far = routing;
          routing_so_far.distribute_cycles += messages.distribute_cycles();
          cw.write<RoutingStats>(routing_so_far);
          save_proc_state(cw, disks, alloc, contexts, messages, rng);
          const auto own = cw.take();
          tp_->post(0, std::span<const std::byte>(own));
          const auto records = tp_->exchange();
          if (me == 0) {
            const auto t0 = std::chrono::steady_clock::now();
            util::Writer g;
            g.write<std::uint64_t>(step + 1);
            g.write_vector(result.costs.supersteps);
            g.write_vector(result.per_superstep_io);
            g.write<std::uint64_t>(result.recovery.superstep_rollbacks);
            g.write<std::uint64_t>(result.recovery.reorganize_rollbacks);
            g.write<std::uint32_t>(p);
            for (std::uint32_t src = 0; src < p; ++src) {
              if (records[src].size() != 1) {
                throw net::PeerFailedError(
                    "DistSimulator: malformed checkpoint record from rank " +
                    std::to_string(src));
              }
              g.write_vector(records[src][0]);
            }
            const auto payload = g.take();
            ckpt->publish(cfg_.checkpoint.run_index, step + 1, payload,
                          config_fp);
            record_checkpoint(
                rec, result.recovery.checkpoints + 1, payload.size(),
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count()));
          }
          ++result.recovery.checkpoints;
          (void)tp_->exchange();
        }
        if (cancel_seen && any) {
          throw CanceledError(
              "DistSimulator: canceled at superstep boundary " +
              std::to_string(step + 1));
        }
        if (!any) break;
      }
    }

    // Final states — the last recovery unit.  A collecting rank
    // deserializes its own contexts straight from the read views (a single
    // rank hands each to `collect` right away); unless the ranks share an
    // address space, every rank also ships its contexts to all peers, so
    // each worker can hand its driver the complete output.
    const bool ship_states = !own_states_only_ && !local;
    std::vector<std::byte> blob;
    run_unit("superstep", result.recovery.superstep_rollbacks, 0,
             /*body=*/false, [&] {
      ObsPhase phase(rec, "collect", disks, &phase_io.collect, me);
      util::Writer out;
      for (std::uint32_t r = 0; r < rounds; ++r) {
        const std::uint32_t first = r * k;
        const std::uint32_t count = std::min(k, local_v - first);
        const auto views = contexts.read(first, count);
        for (std::uint32_t i = 0; i < count; ++i) {
          if (collect) {
            State st;
            util::Reader rd(views[i]);
            st.deserialize(rd);
            if (local) {
              collect(first + i, st);
            } else {
              final_states[me * local_v + first + i - state_base] =
                  std::move(st);
            }
          }
          if (ship_states) {
            out.write<std::uint64_t>(views[i].size());
            out.write_bytes(views[i]);
          }
        }
      }
      blob = out.take();
    });
    // Flush barrier: every issued transfer has completed (the engine joins
    // per operation); this pushes file-backend buffers to the medium so the
    // backing files are externally consistent when run() returns.
    disks.sync();
    if (ship_states) {
      for (std::uint32_t q = 0; q < p; ++q) {
        if (q != me) tp_->post(q, std::span<const std::byte>(blob));
      }
      const auto gathered = tp_->exchange();
      for (std::uint32_t src = 0; src < p && collect; ++src) {
        if (src == me) continue;
        if (gathered[src].size() != 1) {
          throw net::PeerFailedError(
              "DistSimulator: malformed state record from rank " +
              std::to_string(src));
        }
        util::Reader r(gathered[src][0]);
        for (std::uint32_t j = 0; j < local_v; ++j) {
          const auto n = static_cast<std::size_t>(r.read<std::uint64_t>());
          util::Reader sr(r.read_bytes(n));
          final_states[src * local_v + j].deserialize(sr);
        }
      }
    }

    // --- End-of-run record allgather: every rank assembles the same
    // SimResult (max-over-processors I/O, summed routing and recovery
    // stats, reduced overlap), so digests agree on every rank.
    disks.harvest_backend_stats();  // fold ring counters into engine stats
    routing.distribute_cycles += messages.distribute_cycles();
    bool mem_routing_all = true;
    {
      util::Writer w;
      w.write<em::IoStats>(disks.stats());
      const RecoveryStats mine = local_recovery();
      w.write<std::uint64_t>(mine.io_retries);
      w.write<std::uint64_t>(mine.io_giveups);
      w.write<em::FaultCounts>(mine.faults);
      // Compute/I/O overlap achieved by the engine: the fraction of the
      // busiest disk's transfer time NOT spent blocking the simulator
      // thread (the serial engine executes inline, so it reads ~0).
      const auto& eng = disks.engine_stats();
      const std::uint64_t busy = eng.max_busy_ns();
      double clamped = 0.0;
      if (busy > 0) {
        clamped = std::clamp(1.0 - static_cast<double>(eng.stall_ns) /
                                       static_cast<double>(busy),
                             0.0, 1.0);
      }
      w.write<std::uint8_t>(busy > 0 ? 1 : 0);
      w.write<double>(clamped);
      w.write<RoutingStats>(routing);
      w.write<std::uint64_t>(max_comm_bytes_step);
      w.write<std::uint64_t>(disks.max_tracks_used());
      w.write<PhaseIo>(phase_io);
      w.write<std::uint64_t>(arena_peak);
      w.write<std::uint8_t>(messages.in_memory_routing() ? 1 : 0);
      const auto record = w.take();
      for (std::uint32_t q = 0; q < p; ++q) {
        tp_->post(q, std::span<const std::byte>(record));
      }
      const auto records = tp_->exchange();
      for (std::uint32_t src = 0; src < p; ++src) {
        if (records[src].size() != 1) {
          throw net::PeerFailedError(
              "DistSimulator: malformed end-of-run record from rank " +
              std::to_string(src));
        }
        util::Reader r(records[src][0]);
        const auto io = r.read<em::IoStats>();
        result.per_proc_io.push_back(io);
        if (io.parallel_ios >= result.total_io.parallel_ios) {
          result.total_io = io;
        }
        result.recovery.io_retries += r.read<std::uint64_t>();
        result.recovery.io_giveups += r.read<std::uint64_t>();
        result.recovery.faults += r.read<em::FaultCounts>();
        const bool has_busy = r.read<std::uint8_t>() != 0;
        const double ratio = r.read<double>();
        if (has_busy) {
          result.overlap_ratio =
              src == 0 ? ratio : std::min(result.overlap_ratio, ratio);
        }
        result.routing_stats += r.read<RoutingStats>();
        result.real_comm_bytes =
            std::max(result.real_comm_bytes, r.read<std::uint64_t>());
        result.max_tracks_per_disk =
            std::max(result.max_tracks_per_disk, r.read<std::uint64_t>());
        const auto pio = r.read<PhaseIo>();
        if (src == 0) result.phase_io = pio;
        arena_peak = std::max(arena_peak, r.read<std::uint64_t>());
        if (r.read<std::uint8_t>() == 0) mem_routing_all = false;
      }
    }

    if (rec != nullptr) {
      auto& reg = rec->registry;
      em::export_metrics(disks.engine_stats(), reg, engine_prefix);
      if (exports_run) {
        export_routing_stats(reg, result.routing_stats);
        export_recovery_stats(reg, result.recovery);
        reg.add("sim.supersteps", result.costs.num_supersteps());
        reg.set_gauge("sim.group_size",
                      static_cast<double>(result.group_size));
        reg.set_gauge("sim.max_tracks_per_disk",
                      static_cast<double>(result.max_tracks_per_disk));
        if (!local) {
          reg.set_gauge("sim.real_comm_bytes",
                        static_cast<double>(result.real_comm_bytes));
        }
        reg.set_gauge("sim.overlap_ratio", result.overlap_ratio);
        // Worst peak arena residency over all ranks.
        reg.set_gauge("sim.arena_bytes", static_cast<double>(arena_peak));
        reg.set_gauge("sim.in_memory_routing", mem_routing_all ? 1.0 : 0.0);
        LayoutPlanner::export_plan(reg, plan, cfg_);
        if (tuner.has_value()) {
          reg.set_gauge("sim.layout.replans",
                        static_cast<double>(tuner->replans()));
          reg.set_gauge("sim.layout.compute_width",
                        static_cast<double>(pool != nullptr ? pool->width()
                                                            : 1));
        }
      }
      // One rank exchanges only with itself: no wire traffic to report.
      if (!local) tp_->export_metrics(reg);
    }
  } catch (const std::exception& e) {
    // Settle in-flight tokens before unwinding past their staging buffers,
    // then poison the mesh so peers fail fast instead of timing out.
    quiesce();
    tp_->abort(e.what());
    export_abort();
    throw;
  } catch (...) {
    quiesce();
    tp_->abort("unknown error");
    export_abort();
    throw;
  }

  for (std::size_t i = 0; i < final_states.size(); ++i) {
    collect(state_base + static_cast<std::uint32_t>(i), final_states[i]);
  }
  return result;
}

}  // namespace embsp::sim
