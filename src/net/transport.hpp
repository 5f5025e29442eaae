// Inter-processor transport for the distributed EM-BSP* simulation.
//
// Algorithm 3's communication pattern is bulk-synchronous: within one phase
// every real processor posts blocks to peers, then all processors meet at a
// barrier and each receives what was posted to it.  `Transport` captures
// exactly that as a three-call protocol — `post()` queues outgoing
// messages, `progress()` opportunistically drains them (and buffers
// arriving bytes) without ever blocking, and `exchange()` is the barrier +
// delivery — so `DistSimulator` is written once against the interface and
// runs unchanged over the in-process loopback (ParSimulator's p ranks on
// threads) and the Unix-socket/TCP backend (separate worker processes, each
// with private memory and disks: the machine the EM-BSP model actually
// describes).  Calling progress() between posts lets a rank push its
// phase's traffic onto the wire while it is still computing or waiting on
// its disks; skipping it is always correct, merely slower — exchange()
// drains whatever is left.
//
// Failure semantics: a peer that dies or stalls surfaces as a typed
// `NetError` (folded into the `em::IoError` taxonomy so callers classify it
// like any other I/O fault), never as a hang — every blocking wait carries a
// deadline, and `abort()` broadcasts a best-effort poison frame so peers
// fail fast instead of timing out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "em/io_error.hpp"

namespace embsp::obs {
class Registry;
}  // namespace embsp::obs

namespace embsp::net {

/// Transport-tier failure, classified on the em::IoError taxonomy:
///   transient  — a peer missed a deadline (it may merely be slow),
///   persistent — a peer reported a fatal error or its connection died,
///   corrupt    — a frame failed its checksum or header validation.
class NetError : public em::IoError {
 public:
  NetError(Kind kind, const std::string& what) : em::IoError(kind, what) {}
};

class PeerTimeoutError : public NetError {
 public:
  explicit PeerTimeoutError(const std::string& what)
      : NetError(Kind::transient, what) {}
};

class PeerFailedError : public NetError {
 public:
  explicit PeerFailedError(const std::string& what)
      : NetError(Kind::persistent, what) {}
};

class CorruptFrameError : public NetError {
 public:
  explicit CorruptFrameError(const std::string& what)
      : NetError(Kind::corrupt, what) {}
};

using Blob = std::vector<std::byte>;

class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual std::uint32_t rank() const = 0;
  [[nodiscard]] virtual std::uint32_t size() const = 0;

  /// Queue one message for `dst` (any rank, including self).  The fragments
  /// are gathered at transmission time — the socket backend serializes them
  /// straight into vectored send buffers (writev), so arena-resident
  /// MessageRef spans go to the wire with no intermediate copy.  Callers
  /// must keep the fragment storage alive until the next exchange()
  /// returns.
  virtual void post(std::uint32_t dst,
                    std::span<const std::span<const std::byte>> frags) = 0;

  /// Single-fragment convenience overload.
  void post(std::uint32_t dst, std::span<const std::byte> payload) {
    const std::span<const std::byte> frag[1] = {payload};
    post(dst, frag);
  }

  /// True when post() copies the fragments before it returns, so a caller
  /// may post transient spans without keeping them alive (loopback).
  [[nodiscard]] virtual bool copies_on_post() const { return false; }

  /// Non-blocking progress: drain queued sends toward the kernel and
  /// buffer (and pre-parse) whatever peers have already delivered, then
  /// return immediately — never waits, and never throws PeerTimeoutError
  /// (the io deadline is anchored at exchange(), not here; see below).
  /// Wire or framing failures still surface as PeerFailedError /
  /// CorruptFrameError.  The default is a no-op: backends whose post()
  /// already completes the transmission (loopback) need nothing more.
  virtual void progress() {}

  /// Phase barrier + delivery: blocks until every rank has entered
  /// exchange(), then returns, for each source rank, the messages it
  /// posted to this rank during the phase, in posting order
  /// (result[src][i]).  Throws NetError if a peer aborts, disconnects, or
  /// misses the deadline — the deadline clock starts HERE, when the rank
  /// enters the barrier, never at post(): an arbitrarily long compute
  /// phase between post() and the barrier cannot trip an io-timeout.
  virtual std::vector<std::vector<Blob>> exchange() = 0;

  /// Best-effort fatal-error broadcast: peers blocked in exchange() unwind
  /// with PeerFailedError carrying `reason` instead of timing out.
  virtual void abort(const std::string& reason) noexcept = 0;

  /// Per-link traffic counters and latency histograms, exported under
  /// "net.link.<peer>.*" plus transport-wide "net.*" entries.
  virtual void export_metrics(obs::Registry& reg) const = 0;
};

/// In-process loopback group: p endpoints sharing one mailbox table, with a
/// generation-counted barrier.  Endpoint i is rank i; each must be driven
/// from its own thread.  ParSimulator runs its ranks over one;
/// `--transport loopback`, tests and benches drive DistSimulator ranks over
/// one directly.
std::vector<std::unique_ptr<Transport>> make_loopback_group(
    std::uint32_t p, std::uint64_t timeout_ms = 120'000);

/// Socket transport configuration.  `address` selects the family:
///   "host:port" — TCP; rank r listens on port + r,
///   anything else — a Unix-domain path prefix; rank r binds "<prefix>.r".
struct SocketConfig {
  std::string address;
  std::uint32_t rank = 0;
  std::uint32_t peers = 1;
  /// Budget for the full-mesh connect/accept handshake (covers peers that
  /// are still being launched; connects retry with backoff until it ends).
  std::uint64_t connect_timeout_ms = 30'000;
  /// Deadline for any single exchange() to complete once entered.
  std::uint64_t io_timeout_ms = 120'000;
};

/// Connects the full mesh (ranks connect to all lower ranks, accept all
/// higher ranks) and returns this rank's endpoint.  Blocks until the mesh
/// is up or connect_timeout_ms expires (PeerTimeoutError).
std::unique_ptr<Transport> make_socket_transport(const SocketConfig& cfg);

}  // namespace embsp::net
