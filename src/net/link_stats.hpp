// Per-link traffic accounting shared by the transport backends.
//
// Concurrency contract follows LogHistogram: a LinkStats is written by the
// endpoint's owning thread only and read at export time, when the run is
// quiescent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"

namespace embsp::net {

struct LinkStats {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  /// Bytes queued toward this peer that have not yet left the endpoint
  /// (posted but undrained); drops back to zero by the end of each
  /// exchange().  The high-water mark measures how much of a phase's
  /// traffic was in flight at once — the depth the overlap machinery has
  /// to play with.
  std::uint64_t inflight_bytes = 0;
  std::uint64_t max_inflight_bytes = 0;
  /// Payload size of each message sent over this link.
  obs::LogHistogram send_bytes;
};

/// Exports one endpoint's view: per-peer links under "net.link.<peer>.*"
/// (the self index is skipped — loopback delivery is not wire traffic)
/// plus the transport-wide exchange counters.  `overlap_ratio` is the
/// fraction of outbound wire bytes this endpoint drained outside the
/// exchange() barrier (via post()/progress()), i.e. hidden behind compute
/// or disk I/O; 0 when nothing was sent.
inline void export_link_metrics(obs::Registry& reg,
                                const std::vector<LinkStats>& links,
                                std::uint32_t self, std::uint64_t exchanges,
                                const obs::LogHistogram& exchange_wait_ns,
                                double overlap_ratio) {
  for (std::uint32_t peer = 0; peer < links.size(); ++peer) {
    if (peer == self) continue;
    const auto& l = links[peer];
    const std::string base = "net.link." + std::to_string(peer) + ".";
    reg.add(base + "bytes_sent", l.bytes_sent);
    reg.add(base + "bytes_received", l.bytes_received);
    reg.add(base + "frames_sent", l.frames_sent);
    reg.add(base + "frames_received", l.frames_received);
    reg.set_gauge(base + "max_inflight_bytes",
                  static_cast<double>(l.max_inflight_bytes));
    if (!l.send_bytes.empty()) {
      reg.merge_histogram(base + "send_bytes", l.send_bytes);
    }
  }
  reg.add("net.exchanges", exchanges);
  reg.set_gauge("net.exchange_overlap_ratio", overlap_ratio);
  if (!exchange_wait_ns.empty()) {
    reg.merge_histogram("net.exchange_wait_ns", exchange_wait_ns);
  }
}

}  // namespace embsp::net
