#include "em/io_stats.hpp"

#include "obs/metrics.hpp"

namespace embsp::em {

double EngineStats::stall_fraction_since(const EngineStats& prev) const {
  const std::uint64_t stall =
      stall_ns >= prev.stall_ns ? stall_ns - prev.stall_ns : stall_ns;
  std::uint64_t busy = 0;
  for (std::size_t d = 0; d < per_disk.size(); ++d) {
    const std::uint64_t before =
        d < prev.per_disk.size() ? prev.per_disk[d].busy_ns : 0;
    const std::uint64_t now = per_disk[d].busy_ns;
    busy = std::max(busy, now >= before ? now - before : now);
  }
  if (busy == 0) return 0.0;
  return std::clamp(
      static_cast<double>(stall) / static_cast<double>(busy), 0.0, 1.0);
}

void export_metrics(const EngineStats& stats, obs::Registry& registry,
                    const std::string& prefix) {
  std::string key;
  key.reserve(prefix.size() + 32);
  auto at = [&](const std::string& mid, std::string_view leaf)
      -> const std::string& {
    key.assign(prefix).append(mid).append(leaf);
    return key;
  };
  for (std::size_t d = 0; d < stats.per_disk.size(); ++d) {
    const DiskIoStats& ds = stats.per_disk[d];
    const std::string mid = "disk." + std::to_string(d) + ".";
    registry.add(at(mid, "ops"), ds.ops);
    registry.add(at(mid, "bytes"), ds.bytes);
    registry.add(at(mid, "busy_ns"), ds.busy_ns);
    registry.add(at(mid, "retries"), ds.retries);
    registry.add(at(mid, "giveups"), ds.giveups);
    registry.add(at(mid, "coalesced_tracks"), ds.coalesced_tracks);
    registry.add(at(mid, "elided_tracks"), ds.elided_tracks);
    registry.merge_histogram(at(mid, "service_ns"), ds.service_ns);
    if (!ds.retry_delay_ns.empty()) {
      registry.merge_histogram(at(mid, "retry_delay_ns"), ds.retry_delay_ns);
    }
  }
  registry.add(at("", "stall_ns"), stats.stall_ns);
  registry.add(at("", "coalesced_tracks"), stats.total_coalesced_tracks());
  registry.add(at("", "elided_tracks"), stats.total_elided_tracks());
  registry.set_gauge(at("", "max_queue_depth"),
                     static_cast<double>(stats.max_queue_depth));
  registry.merge_histogram(at("", "queue_depth"), stats.queue_depth);
  // Quiescence-point failures: always exported (a zero is the signal that
  // the recovery paths stayed clean); the kind gauge only when one occurred.
  registry.add(at("", "drain_errors"), stats.drain_errors);
  if (stats.last_drain_error_kind >= 0) {
    registry.set_gauge(at("", "last_drain_error_kind"),
                       static_cast<double>(stats.last_drain_error_kind));
  }
  if (stats.uring.active()) {
    const UringEngineStats& u = stats.uring;
    registry.add(at("uring.", "rings"), u.rings);
    registry.add(at("uring.", "direct_rings"), u.direct_rings);
    registry.add(at("uring.", "sqes"), u.sqes);
    registry.add(at("uring.", "enters"), u.enters);
    registry.add(at("uring.", "fixed_ops"), u.fixed_ops);
    registry.add(at("uring.", "bounced_bytes"), u.bounced_bytes);
    registry.merge_histogram(at("uring.", "ring_depth"), u.ring_depth);
    registry.merge_histogram(at("uring.", "completion_ns"), u.completion_ns);
  }
}

}  // namespace embsp::em
