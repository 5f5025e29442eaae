// In-process loopback transport: p endpoints over one shared mailbox table.
//
// post() assembles the gathered fragments into one owned Blob in the
// staging cell (src, dst) — the only copy a block makes between two
// in-process ranks — and exchange() is a generation-counted
// condition-variable barrier: the last rank to arrive swaps the staging
// table into the delivery table and wakes everyone.
//
// Safety of the swap: rank r reads only delivery[r], and the delivery table
// is replaced only when ALL ranks have arrived at the NEXT exchange — which
// happens-after every rank moved its row out.  No rank can still be
// touching the previous delivery when it is overwritten.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>

#include "net/link_stats.hpp"
#include "net/transport.hpp"

namespace embsp::net {

namespace {

class LoopbackTransport;

struct LoopbackGroup {
  explicit LoopbackGroup(std::uint32_t n, std::uint64_t timeout)
      : p(n),
        timeout_ms(timeout),
        staging(n, std::vector<std::vector<Blob>>(n)),
        delivery(n, std::vector<std::vector<Blob>>(n)) {}

  const std::uint32_t p;
  const std::uint64_t timeout_ms;

  std::mutex m;
  std::condition_variable cv;
  /// staging[src][dst]: posted this phase.  delivery[dst][src]: readable
  /// after the barrier.
  std::vector<std::vector<std::vector<Blob>>> staging;
  std::vector<std::vector<std::vector<Blob>>> delivery;
  std::uint64_t generation = 0;
  std::uint32_t arrived = 0;
  bool poisoned = false;
  std::string poison_reason;
};

class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(std::shared_ptr<LoopbackGroup> group, std::uint32_t rank)
      : group_(std::move(group)), rank_(rank), links_(group_->p) {}

  [[nodiscard]] std::uint32_t rank() const override { return rank_; }
  [[nodiscard]] std::uint32_t size() const override { return group_->p; }
  [[nodiscard]] bool copies_on_post() const override { return true; }

  void post(std::uint32_t dst,
            std::span<const std::span<const std::byte>> frags) override {
    std::size_t total = 0;
    for (const auto& f : frags) total += f.size();
    Blob blob(total);
    std::size_t off = 0;
    for (const auto& f : frags) {
      std::memcpy(blob.data() + off, f.data(), f.size());
      off += f.size();
    }
    if (dst != rank_) {
      auto& l = links_[dst];
      l.bytes_sent += total;
      l.frames_sent += 1;
      l.send_bytes.record(total);
      // The copy above IS the transmission: the bytes sit in the shared
      // staging table until the barrier swaps them over.
      l.inflight_bytes += total;
      l.max_inflight_bytes = std::max(l.max_inflight_bytes, l.inflight_bytes);
    }
    std::lock_guard<std::mutex> lock(group_->m);
    group_->staging[rank_][dst].push_back(std::move(blob));
  }

  std::vector<std::vector<Blob>> exchange() override {
    auto& g = *group_;
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(g.m);
    if (g.poisoned) {
      throw PeerFailedError("net: peer aborted: " + g.poison_reason);
    }
    if (++g.arrived == g.p) {
      for (std::uint32_t dst = 0; dst < g.p; ++dst) {
        for (std::uint32_t src = 0; src < g.p; ++src) {
          g.delivery[dst][src] = std::move(g.staging[src][dst]);
          g.staging[src][dst].clear();
        }
      }
      g.arrived = 0;
      ++g.generation;
      g.cv.notify_all();
    } else {
      const std::uint64_t gen = g.generation;
      const bool done = g.cv.wait_for(
          lock, std::chrono::milliseconds(g.timeout_ms),
          [&] { return g.generation != gen || g.poisoned; });
      if (g.poisoned) {
        throw PeerFailedError("net: peer aborted: " + g.poison_reason);
      }
      if (!done) {
        // Leave the barrier: this arrival must not count toward a phase
        // this endpoint has given up on.
        --g.arrived;
        throw PeerTimeoutError(
            "net: loopback barrier timed out after " +
            std::to_string(g.timeout_ms) + "ms (a peer never reached "
            "exchange)");
      }
    }
    auto out = std::move(g.delivery[rank_]);
    g.delivery[rank_].assign(g.p, {});
    for (std::uint32_t src = 0; src < g.p; ++src) {
      if (src == rank_) continue;
      for (const auto& b : out[src]) {
        links_[src].bytes_received += b.size();
        links_[src].frames_received += 1;
      }
    }
    for (auto& l : links_) l.inflight_bytes = 0;  // staging was delivered
    ++exchanges_;
    exchange_wait_ns_.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    return out;
  }

  void abort(const std::string& reason) noexcept override {
    try {
      std::lock_guard<std::mutex> lock(group_->m);
      if (!group_->poisoned) {
        group_->poisoned = true;
        group_->poison_reason =
            "rank " + std::to_string(rank_) + ": " + reason;
      }
      group_->cv.notify_all();
    } catch (...) {  // lock/alloc failure: peers fall back to the timeout
    }
  }

  void export_metrics(obs::Registry& reg) const override {
    // post() performs the entire transmission before the barrier, so every
    // wire byte was drained outside exchange(): full overlap whenever this
    // endpoint sent anything at all.
    std::uint64_t sent = 0;
    for (const auto& l : links_) sent += l.bytes_sent;
    export_link_metrics(reg, links_, rank_, exchanges_, exchange_wait_ns_,
                        sent > 0 ? 1.0 : 0.0);
  }

 private:
  std::shared_ptr<LoopbackGroup> group_;
  const std::uint32_t rank_;
  std::vector<LinkStats> links_;
  std::uint64_t exchanges_ = 0;
  obs::LogHistogram exchange_wait_ns_;
};

}  // namespace

std::vector<std::unique_ptr<Transport>> make_loopback_group(
    std::uint32_t p, std::uint64_t timeout_ms) {
  auto group = std::make_shared<LoopbackGroup>(p, timeout_ms);
  std::vector<std::unique_ptr<Transport>> endpoints;
  endpoints.reserve(p);
  for (std::uint32_t r = 0; r < p; ++r) {
    endpoints.push_back(std::make_unique<LoopbackTransport>(group, r));
  }
  return endpoints;
}

}  // namespace embsp::net
