// Digest of one simulation run: the collected final states plus every
// deterministic field of its SimResult (SuperstepCosts, IoStats per
// processor and in total, the phase breakdown, routing statistics, space,
// real communication and the recovery/fault history).  Wall-clock-derived
// fields (overlap_ratio) are excluded.
//
// The parity suites pin golden values of this digest: they were recorded
// from the threaded p-processor simulator that predates the rank-loop
// engine, so the loopback and socket runs of today's engine are held
// against an independent reference rather than against each other.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/sim_config.hpp"
#include "util/checksum.hpp"
#include "util/serialization.hpp"

namespace embsp::testing {

inline std::uint64_t run_digest(
    const sim::SimResult& r,
    const std::vector<std::vector<std::byte>>& states) {
  util::Writer w;
  for (const auto& s : states) w.write_vector(s);
  w.write_vector(r.costs.supersteps);
  w.write<em::IoStats>(r.total_io);
  w.write_vector(r.per_proc_io);
  w.write<sim::PhaseIo>(r.phase_io);
  w.write<sim::RoutingStats>(r.routing_stats);
  w.write<std::uint64_t>(r.group_size);
  w.write<std::uint64_t>(r.max_tracks_per_disk);
  w.write<std::uint64_t>(r.real_comm_bytes);
  w.write<std::uint64_t>(r.recovery.io_retries);
  w.write<std::uint64_t>(r.recovery.io_giveups);
  w.write<std::uint64_t>(r.recovery.superstep_rollbacks);
  w.write<std::uint64_t>(r.recovery.reorganize_rollbacks);
  w.write<em::FaultCounts>(r.recovery.faults);
  const auto bytes = w.take();
  return util::checksum64(bytes);
}

}  // namespace embsp::testing
