#include "em/disk_array.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>

#include "em/parallel_disk_array.hpp"
#include "em/uring_backend.hpp"

namespace embsp::em {

namespace {
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

DiskArray::DiskArray(
    std::size_t num_disks, std::size_t block_size,
    std::function<std::unique_ptr<Backend>(std::size_t)> make_backend,
    std::uint64_t capacity_tracks_per_disk, DiskArrayOptions options)
    : block_size_(block_size), options_(options), seen_(num_disks, 0) {
  if (num_disks == 0) {
    throw std::invalid_argument("DiskArray: need at least one disk");
  }
  disks_.reserve(num_disks);
  jitter_.reserve(num_disks);
  for (std::size_t d = 0; d < num_disks; ++d) {
    auto backend =
        make_backend ? make_backend(d) : make_memory_backend();
    disks_.push_back(std::make_unique<Disk>(block_size, std::move(backend),
                                            capacity_tracks_per_disk,
                                            options_.verify_checksums));
    // Backoff jitter only shapes sleep durations, never data, so a fixed
    // per-disk seed keeps arrays reproducible without configuration.
    jitter_.emplace_back(0xB0FF'0000ULL + d);
  }
  engine_.per_disk.resize(num_disks);
}

DiskArray::~DiskArray() {
  // Tokens never settled by the owner are settled here so their successful
  // I/O is not silently forgotten.  ParallelDiskArray drains before joining
  // its workers, making this a no-op for the concurrent engine.
  drain();
}

void DiskArray::check_distinct(std::span<const std::uint32_t> disks) const {
  if (disks.empty()) {
    throw std::invalid_argument("DiskArray: empty parallel I/O operation");
  }
  if (disks.size() > disks_.size()) {
    throw std::invalid_argument(
        "DiskArray: more ops than disks in one parallel I/O");
  }
  for (auto d : disks) {
    if (d >= disks_.size()) {
      throw std::out_of_range("DiskArray: disk index " + std::to_string(d));
    }
    if (seen_[d] != 0) {
      // Clean up before throwing so the array stays usable.
      for (auto e : disks) seen_[e] = 0;
      throw std::invalid_argument(
          "DiskArray: disk " + std::to_string(d) +
          " accessed twice in one parallel I/O (model violation)");
    }
    seen_[d] = 1;
  }
  for (auto d : disks) seen_[d] = 0;
}

void DiskArray::run_transfer(const Transfer& t) {
  auto& ds = engine_.per_disk[t.disk];
  const RetryPolicy& policy = options_.retry;
  const std::size_t n = t.tracks();
  // Span tables for the vectored path, built once per transfer (a retry
  // reuses them — it replays the whole run, which is why the simulators
  // disable coalescing when deterministic fault schedules are active).
  std::vector<std::span<std::byte>> read_spans;
  std::vector<std::span<const std::byte>> write_spans;
  if (n > 1) {
    if (t.dst != nullptr) {
      read_spans.reserve(n);
      read_spans.emplace_back(t.dst, t.len);
      for (std::byte* p : t.more_dst) read_spans.emplace_back(p, t.len);
    } else {
      write_spans.reserve(n);
      write_spans.emplace_back(t.src, t.len);
      for (const std::byte* p : t.more_src) write_spans.emplace_back(p, t.len);
    }
  }
  for (std::uint32_t attempt = 1;; ++attempt) {
    const std::uint64_t t0 = now_ns();
    try {
      if (t.dst != nullptr) {
        if (n == 1) {
          disks_[t.disk]->read_track(t.track, {t.dst, t.len});
        } else {
          disks_[t.disk]->read_tracks(t.track, read_spans);
        }
      } else {
        if (n == 1) {
          disks_[t.disk]->write_track(t.track, {t.src, t.len});
        } else {
          disks_[t.disk]->write_tracks(t.track, write_spans);
        }
      }
      const std::uint64_t dt = now_ns() - t0;
      ds.busy_ns += dt;
      ds.service_ns.record(dt);
      break;
    } catch (const IoError& e) {
      const std::uint64_t dt = now_ns() - t0;
      ds.busy_ns += dt;
      ds.service_ns.record(dt);
      if (!e.retryable() || attempt >= policy.max_attempts) {
        ds.giveups += 1;
        throw;
      }
      ds.retries += 1;
      const std::uint64_t delay = policy.backoff_ns(attempt, jitter_[t.disk]);
      ds.retry_delay_ns.record(delay);
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
      }
    }
  }
  ds.ops += n;
  ds.bytes += t.len * n;
  if (n > 1) ds.coalesced_tracks += n - 1;
}

void DiskArray::PendingOp::complete(std::size_t index,
                                    std::exception_ptr error) {
  std::lock_guard<std::mutex> lock(m);
  if (error != nullptr) errors[index] = std::move(error);
  if (--remaining == 0) {
    done = true;
    // Notify under the lock: the waiter re-checks `done` holding m, so it
    // cannot destroy the op while we still touch it.
    cv.notify_all();
  }
}

void DiskArray::start(const std::shared_ptr<PendingOp>& op) {
  // Serial engine: the issuing thread performs the transfers back-to-back
  // and STOPS at the first failure (the historical serial semantics —
  // later transfers of a failed operation never reach the disk, so
  // deterministic fault schedules keyed on per-disk call counts are
  // preserved).  The whole inline execution is issuing-thread stall.
  const std::uint64_t t0 = now_ns();
  std::size_t i = 0;
  std::exception_ptr err;
  for (; i < op->transfers.size(); ++i) {
    try {
      run_transfer(op->transfers[i]);
    } catch (...) {
      err = std::current_exception();
      break;
    }
  }
  engine_.stall_ns += now_ns() - t0;
  std::lock_guard<std::mutex> lock(op->m);
  if (err != nullptr) op->errors[i] = std::move(err);
  op->remaining = 0;
  op->done = true;
}

DiskArray::IoToken DiskArray::launch(std::shared_ptr<PendingOp> op,
                                     std::size_t width) {
  op->remaining = op->transfers.size();
  op->errors.resize(op->transfers.size());
  // A batch whose every track was elided has nothing to execute: it is
  // settled on arrival and leaves the queue-depth record alone.
  op->done = op->transfers.empty();
  if (width > 0) {
    engine_.max_queue_depth =
        std::max<std::uint64_t>(engine_.max_queue_depth, width);
    engine_.queue_depth.record(width);
  }
  const IoToken token = next_token_++;
  pending_.emplace(token, op);
  start(op);
  return token;
}

template <class Op>
DiskArray::IoToken DiskArray::submit(std::span<const Op> ops, bool is_read) {
  std::vector<std::uint32_t> ids;
  ids.reserve(ops.size());
  for (const auto& op : ops) ids.push_back(op.disk);
  check_distinct(ids);
  auto op = std::make_shared<PendingOp>();
  op->is_read = is_read;
  op->transfers.reserve(ops.size());
  for (const auto& o : ops) {
    if constexpr (std::is_same_v<Op, ReadOp>) {
      op->transfers.push_back(
          {o.disk, o.track, o.dst.data(), nullptr, o.dst.size()});
      op->bytes += o.dst.size();
    } else {
      op->transfers.push_back(
          {o.disk, o.track, nullptr, o.src.data(), o.src.size()});
      op->bytes += o.src.size();
    }
  }
  op->blocks = ops.size();
  return launch(std::move(op), ops.size());
}

template <class Op>
DiskArray::IoToken DiskArray::submit_batch(
    std::span<const Op> ops, std::uint64_t cycles, bool is_read,
    std::span<const std::uint64_t> elided) {
  if (!elided.empty() && elided.size() != disks_.size()) {
    throw std::invalid_argument("DiskArray: elided counts need one per disk");
  }
  std::uint64_t elided_total = 0;
  for (const auto e : elided) elided_total += e;
  if (ops.empty() && elided_total == 0) {
    throw std::invalid_argument("DiskArray: empty batched I/O");
  }
  // Partition op indices per disk, preserving op order — the per-disk
  // execution order (and therefore any per-disk deterministic fault
  // schedule) is exactly the order the caller listed the ops in.
  std::vector<std::vector<std::size_t>> per_disk(disks_.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].disk >= disks_.size()) {
      throw std::out_of_range("DiskArray: disk index " +
                              std::to_string(ops[i].disk));
    }
    per_disk[ops[i].disk].push_back(i);
  }
  std::uint64_t deepest = 0;
  std::size_t width = 0;
  for (std::size_t d = 0; d < per_disk.size(); ++d) {
    const std::uint64_t elided_d = elided.empty() ? 0 : elided[d];
    deepest = std::max<std::uint64_t>(deepest, per_disk[d].size() + elided_d);
    if (!per_disk[d].empty()) ++width;
  }
  if (cycles < deepest) {
    throw std::invalid_argument(
        "DiskArray: batch declares " + std::to_string(cycles) +
        " cycles but some disk needs " + std::to_string(deepest) +
        " (one track per disk per parallel I/O)");
  }
  auto op = std::make_shared<PendingOp>();
  op->is_read = is_read;
  op->cycles = cycles;
  op->blocks = ops.size() + elided_total;
  op->bytes = elided_total * block_size_;
  if (elided_total != 0) op->elided.assign(elided.begin(), elided.end());
  for (std::size_t d = 0; d < per_disk.size(); ++d) {
    const auto& idxs = per_disk[d];
    for (std::size_t j = 0; j < idxs.size();) {
      const Op& first = ops[idxs[j]];
      Transfer t{};
      t.disk = first.disk;
      t.track = first.track;
      if constexpr (std::is_same_v<Op, ReadOp>) {
        t.dst = first.dst.data();
        t.len = first.dst.size();
      } else {
        t.src = first.src.data();
        t.len = first.src.size();
      }
      op->bytes += t.len;
      std::size_t k = j + 1;
      // Extend the run while the next op on this disk targets the very
      // next track (physical adjacency is what preadv/pwritev require).
      while (options_.coalesce && k < idxs.size() &&
             ops[idxs[k]].track == ops[idxs[k - 1]].track + 1) {
        const Op& next = ops[idxs[k]];
        if constexpr (std::is_same_v<Op, ReadOp>) {
          if (next.dst.size() != t.len) break;
          t.more_dst.push_back(next.dst.data());
        } else {
          if (next.src.size() != t.len) break;
          t.more_src.push_back(next.src.data());
        }
        op->bytes += t.len;
        ++k;
      }
      op->transfers.push_back(std::move(t));
      j = k;
    }
  }
  return launch(std::move(op), width);
}

void DiskArray::settle(PendingOp& op, bool swallow) {
  {
    std::unique_lock<std::mutex> lock(op.m);
    if (!op.done) {
      const std::uint64_t t0 = now_ns();
      op.cv.wait(lock, [&] { return op.done; });
      engine_.stall_ns += now_ns() - t0;
    }
  }
  std::exception_ptr first;
  for (auto& e : op.errors) {
    if (e != nullptr) {
      first = e;
      break;
    }
  }
  if (first != nullptr) {
    // Model accounting only on success: a failed operation must charge
    // nothing, or recovery paths double-count bytes for I/O that never
    // completed.
    if (!swallow) std::rethrow_exception(first);
    // Swallowed ≠ invisible: quiescence points (drain) discard the error to
    // keep rollback noexcept, but the obs snapshot must still show that a
    // recovery-path I/O failed — record every swallow and keep the first
    // error's classification.
    engine_.drain_errors += 1;
    if (engine_.last_drain_error_kind < 0) {
      try {
        std::rethrow_exception(first);
      } catch (const IoError& e) {
        engine_.last_drain_error_kind = static_cast<int>(e.kind());
        engine_.last_drain_error = e.what();
      } catch (const std::exception& e) {
        engine_.last_drain_error_kind = static_cast<int>(IoError::Kind::persistent);
        engine_.last_drain_error = e.what();
      } catch (...) {
        engine_.last_drain_error_kind = static_cast<int>(IoError::Kind::persistent);
        engine_.last_drain_error = "unknown error";
      }
    }
    return;
  }
  stats_.parallel_ios += op.cycles;
  for (std::size_t d = 0; d < op.elided.size(); ++d) {
    engine_.per_disk[d].elided_tracks += op.elided[d];
  }
  if (op.is_read) {
    stats_.blocks_read += op.blocks;
    stats_.bytes_read += op.bytes;
  } else {
    stats_.blocks_written += op.blocks;
    stats_.bytes_written += op.bytes;
  }
}

DiskArray::IoToken DiskArray::submit_read(std::span<const ReadOp> ops) {
  return submit(ops, /*is_read=*/true);
}

DiskArray::IoToken DiskArray::submit_write(std::span<const WriteOp> ops) {
  return submit(ops, /*is_read=*/false);
}

DiskArray::IoToken DiskArray::submit_read_batch(std::span<const ReadOp> ops,
                                                std::uint64_t cycles) {
  return submit_batch(ops, cycles, /*is_read=*/true, {});
}

DiskArray::IoToken DiskArray::submit_write_batch(
    std::span<const WriteOp> ops, std::uint64_t cycles,
    std::span<const std::uint64_t> elided) {
  return submit_batch(ops, cycles, /*is_read=*/false, elided);
}

void DiskArray::parallel_read_batch(std::span<const ReadOp> ops,
                                    std::uint64_t cycles) {
  wait(submit_read_batch(ops, cycles));
}

void DiskArray::parallel_write_batch(std::span<const WriteOp> ops,
                                     std::uint64_t cycles) {
  wait(submit_write_batch(ops, cycles));
}

void DiskArray::wait(IoToken token) {
  auto it = pending_.find(token);
  if (it == pending_.end()) return;  // already settled
  auto op = std::move(it->second);
  pending_.erase(it);
  settle(*op, /*swallow=*/false);
}

void DiskArray::wait_all() {
  std::exception_ptr first;
  for (auto& [token, op] : pending_) {
    try {
      settle(*op, /*swallow=*/false);
    } catch (...) {
      if (first == nullptr) first = std::current_exception();
    }
  }
  pending_.clear();
  if (first != nullptr) std::rethrow_exception(first);
}

void DiskArray::drain() noexcept {
  for (auto& [token, op] : pending_) settle(*op, /*swallow=*/true);
  pending_.clear();
}

void DiskArray::parallel_read(std::span<const ReadOp> ops) {
  wait(submit_read(ops));
}

void DiskArray::parallel_write(std::span<const WriteOp> ops) {
  wait(submit_write(ops));
}

void DiskArray::sync() {
  wait_all();
  for (auto& d : disks_) d->flush();
}

std::uint64_t DiskArray::max_tracks_used() const {
  std::uint64_t used = 0;
  for (const auto& d : disks_) used = std::max(used, d->tracks_used());
  return used;
}

std::size_t DiskArray::register_io_buffers(
    std::span<const std::span<std::byte>> regions) {
  std::size_t accepted = 0;
  for (auto& d : disks_) {
    if (d->backend().register_buffers(regions)) ++accepted;
  }
  return accepted;
}

void DiskArray::harvest_backend_stats() {
  // Re-snapshot (assign, not accumulate) so calling at every superstep
  // boundary never double-counts.  When a decorator (FaultInjectingBackend)
  // wraps the UringBackend the dynamic_cast misses and the ring counters
  // stay zero — fault runs care about schedules, not hardware telemetry.
  UringEngineStats u{};
  for (auto& d : disks_) {
    const auto* ub = dynamic_cast<const UringBackend*>(&d->backend());
    if (ub == nullptr) continue;
    const UringBackendStats& s = ub->uring_stats();
    u.rings += 1;
    if (ub->direct_io()) u.direct_rings += 1;
    u.sqes += s.sqes;
    u.enters += s.enters;
    u.fixed_ops += s.fixed_ops;
    u.bounced_bytes += s.bounced_bytes;
    u.ring_depth.merge(s.ring_depth);
    u.completion_ns.merge(s.completion_ns);
  }
  engine_.uring = std::move(u);
}

std::unique_ptr<DiskArray> make_disk_array(
    IoEngine engine, std::size_t num_disks, std::size_t block_size,
    std::function<std::unique_ptr<Backend>(std::size_t)> make_backend,
    std::uint64_t capacity_tracks_per_disk, DiskArrayOptions options) {
  if (engine == IoEngine::parallel || engine == IoEngine::uring) {
    // The uring engine reuses the per-drive worker scheduling; what changes
    // is the backend each drive talks to (UringBackend — the simulators
    // default make_backend to make_uring_scratch_factory when the caller
    // supplied none).  Keeping one scheduler preserves per-disk FIFO order
    // and therefore byte/cost/fault parity across engines.
    return std::make_unique<ParallelDiskArray>(
        num_disks, block_size, std::move(make_backend),
        capacity_tracks_per_disk, options);
  }
  return std::make_unique<DiskArray>(num_disks, block_size,
                                     std::move(make_backend),
                                     capacity_tracks_per_disk, options);
}

}  // namespace embsp::em
