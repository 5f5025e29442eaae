#include "sim/context_store.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "em/fault_backend.hpp"
#include "sim/requirements.hpp"

namespace embsp::sim {

namespace {
constexpr std::size_t kLenPrefix = sizeof(std::uint32_t);
}

ContextStore::ContextStore(em::DiskArray& disks, em::TrackAllocators& alloc,
                           std::uint32_t num_contexts,
                           std::size_t max_context_bytes, bool journaled,
                           std::uint32_t first_vproc)
    : disks_(&disks),
      num_contexts_(num_contexts),
      max_context_bytes_(max_context_bytes),
      first_vproc_(first_vproc),
      superstep_(RequirementError::kInit),
      block_size_(disks.block_size()),
      blocks_((max_context_bytes + kLenPrefix + block_size_ - 1) /
              block_size_),
      band_((blocks_ + disks.num_disks() - 1) / disks.num_disks()),
      journaled_(journaled),
      elide_(!journaled),
      lengths_(num_contexts, 0),
      writes_(num_contexts, 0) {
  if (num_contexts == 0) {
    throw std::invalid_argument("ContextStore: need at least one context");
  }
  if (max_context_bytes == 0) {
    throw std::invalid_argument("ContextStore: mu must be > 0");
  }
  // Context j occupies its own band of `band_` tracks on every disk; its
  // i-th block lives on disk (j + i) mod D — the rotation keeps partial
  // (length-limited) accesses of consecutive contexts spread over all
  // drives, preserving the fully parallel group I/O of §5.1.  Journaled
  // mode reserves a second bank of the same shape right after the first.
  start_tracks_ = alloc.reserve_striped(static_cast<std::uint64_t>(band_) *
                                        num_contexts *
                                        (journaled_ ? 2 : 1));
  // A fault-injecting drive draws its schedule per backend call, so an
  // elided write would shift every later fault.
  for (std::size_t d = 0; d < disks.num_disks(); ++d) {
    em::Backend& b = disks.disk(d).backend();
    if (&em::unwrap_faults(b) != &b) elide_ = false;
  }
  if (journaled_) {
    bank_.assign(num_contexts, 0);
    dirty_.assign(num_contexts, 0);
    pending_lengths_.assign(num_contexts, 0);
  }
}

std::pair<std::uint32_t, std::uint64_t> ContextStore::location_in_bank(
    std::uint32_t ctx, std::uint64_t block, std::uint8_t bank) const {
  const std::uint64_t d = disks_->num_disks();
  const auto disk = static_cast<std::uint32_t>((ctx + block) % d);
  return {disk,
          start_tracks_[disk] +
              (static_cast<std::uint64_t>(bank) * num_contexts_ + ctx) *
                  band_ +
              block / d};
}

std::pair<std::uint32_t, std::uint64_t> ContextStore::location(
    std::uint32_t ctx, std::uint64_t block) const {
  return location_in_bank(ctx, block, journaled_ ? bank_[ctx] : 0);
}

void ContextStore::commit_epoch() {
  ++epoch_;
  if (!journaled_) return;
  for (std::uint32_t c = 0; c < num_contexts_; ++c) {
    if (dirty_[c] != 0) {
      bank_[c] ^= 1;
      lengths_[c] = pending_lengths_[c];
      dirty_[c] = 0;
    }
  }
}

void ContextStore::discard_epoch() {
  if (!journaled_) return;
  for (std::uint32_t c = 0; c < num_contexts_; ++c) dirty_[c] = 0;
}

void ContextStore::export_context(std::uint32_t ctx, util::Writer& w) {
  if (ctx >= num_contexts_) {
    throw std::out_of_range("ContextStore::export_context: context index");
  }
  const std::uint8_t bank = journaled_ ? bank_[ctx] : 0;
  const std::uint32_t len = lengths_[ctx];
  w.write<std::uint8_t>(bank);
  w.write<std::uint32_t>(len);
  const std::uint64_t used = blocks_for(len);
  std::vector<std::byte> slot(used * block_size_);
  for (std::uint64_t b = 0; b < used; ++b) {
    const auto [disk, track] = location_in_bank(ctx, b, bank);
    em::Disk& d = disks_->disk(disk);
    d.peek_track(track,
                 std::span<std::byte>(slot).subspan(b * block_size_,
                                                    block_size_),
                 em::unwrap_faults(d.backend()));
  }
  std::uint32_t stored = 0;
  std::memcpy(&stored, slot.data(), kLenPrefix);
  if (stored != len) {
    throw std::runtime_error(
        "ContextStore::export_context: slot of processor " +
        std::to_string(ctx) + " stores length " + std::to_string(stored) +
        ", metadata says " + std::to_string(len));
  }
  w.write_bytes(std::span<const std::byte>(slot).subspan(kLenPrefix, len));
}

void ContextStore::restore_context(std::uint32_t ctx, util::Reader& r) {
  if (ctx >= num_contexts_) {
    throw std::out_of_range("ContextStore::restore_context: context index");
  }
  const auto bank = r.read<std::uint8_t>();
  const auto len = r.read<std::uint32_t>();
  if (len > max_context_bytes_ || bank > 1 || (bank != 0 && !journaled_)) {
    throw std::runtime_error(
        "ContextStore::restore_context: corrupt record for processor " +
        std::to_string(ctx));
  }
  const auto payload = r.read_bytes(len);
  const std::uint64_t used = blocks_for(len);
  std::vector<std::byte> slot(used * block_size_, std::byte{0});
  std::memcpy(slot.data(), &len, kLenPrefix);
  std::memcpy(slot.data() + kLenPrefix, payload.data(), len);
  for (std::uint64_t b = 0; b < used; ++b) {
    const auto [disk, track] = location_in_bank(ctx, b, bank);
    em::Disk& d = disks_->disk(disk);
    d.restore_track(track,
                    std::span<const std::byte>(slot).subspan(
                        b * block_size_, block_size_),
                    em::unwrap_faults(d.backend()));
  }
  if (journaled_) bank_[ctx] = bank;
  lengths_[ctx] = len;
  ++writes_[ctx];
}

void ContextStore::write_submit(std::uint32_t first, std::uint32_t count,
                                const EmitFn& emit, PendingIo& io,
                                const PendingIo& image) {
  if (first + count > num_contexts_) {
    throw std::out_of_range("ContextStore::write: context range");
  }
  const std::uint64_t d = disks_->num_disks();
  io.tokens.clear();
  io.buf.clear();  // keeps capacity: the staging buffer is grow-only
  // Room for every context at mu up front: serializing into it then never
  // reallocates (and never copies the contexts staged before).
  io.buf.reserve(static_cast<std::size_t>(count) * slot_bytes());
  io.first = first;
  io.count = count;
  io.active = true;
  io.settled = false;  // holds a write now, never an image
  // Stage all used blocks, then drain per-disk queues one op per disk per
  // parallel I/O — the rotated layout keeps the queues balanced.
  struct Op {
    std::uint32_t disk;
    std::uint64_t track;
    std::size_t offset;
  };
  std::vector<std::vector<Op>> queues(d);
  std::vector<std::uint64_t> elided(d, 0);
  const bool compare = elide_ && image.settled;
  for (std::uint32_t i = 0; i < count; ++i) {
    // Slot format [u32 len][payload][zero pad]: serialize straight into the
    // staging buffer behind a length placeholder, then zero only the pad
    // bytes (resize value-initializes the tail) — never the payload region.
    const std::size_t offset = io.buf.size();
    io.buf.resize(offset + kLenPrefix);
    util::Writer w(io.buf);
    emit(first + i, w);
    const std::size_t payload = io.buf.size() - offset - kLenPrefix;
    if (payload > max_context_bytes_) {
      throw RequirementError(RequirementError::Budget::mu,
                             first_vproc_ + first + i, superstep_, payload,
                             max_context_bytes_);
    }
    const auto len = static_cast<std::uint32_t>(payload);
    std::memcpy(io.buf.data() + offset, &len, kLenPrefix);
    const std::uint64_t used = blocks_for(payload);
    io.buf.resize(offset + used * block_size_);
    // The blocks this context had when `image` read them, if no write of it
    // has been submitted since: the disk holds exactly those bytes.
    const std::uint32_t ctx = first + i;
    const std::byte* old = nullptr;
    std::uint64_t old_used = 0;
    if (compare && ctx >= image.first && ctx - image.first < image.count &&
        image.write_gen[ctx - image.first] == writes_[ctx]) {
      old = image.buf.data() + image.ctx_offset[ctx - image.first];
      old_used = blocks_for(image.expected_len[ctx - image.first]);
    }
    ++writes_[ctx];
    // Journaled: write the non-live bank and leave the committed copy (the
    // checkpoint) untouched until commit_epoch().
    const std::uint8_t bank =
        journaled_ ? static_cast<std::uint8_t>(bank_[ctx] ^ 1) : 0;
    for (std::uint64_t b = 0; b < used; ++b) {
      const auto [disk, track] = location_in_bank(ctx, b, bank);
      const std::size_t at = offset + b * block_size_;
      if (b < old_used && std::memcmp(io.buf.data() + at,
                                      old + b * block_size_,
                                      block_size_) == 0) {
        ++elided[disk];
        continue;
      }
      queues[disk].push_back(Op{disk, track, at});
    }
    if (journaled_) {
      pending_lengths_[first + i] = len;
      dirty_[first + i] = 1;
    } else {
      lengths_[first + i] = len;
    }
  }
  // One batched submission, pre-declared at the cost the old round-robin
  // drain charged: max per-disk queue depth parallel I/Os (one track per
  // disk per round), elided tracks included.  Per-disk op order stays the
  // queue order, and a context's blocks on one disk sit on consecutive
  // tracks, so runs coalesce into vectored backend transfers.
  std::uint64_t deepest = 0;
  std::uint64_t elided_total = 0;
  std::vector<em::WriteOp> ops;
  for (std::uint64_t disk = 0; disk < d; ++disk) {
    deepest = std::max<std::uint64_t>(deepest,
                                      queues[disk].size() + elided[disk]);
    elided_total += elided[disk];
    for (const Op& op : queues[disk]) {
      ops.push_back({op.disk, op.track,
                     std::span<const std::byte>(io.buf)
                         .subspan(op.offset, block_size_)});
    }
  }
  if (!ops.empty() || elided_total != 0) {
    io.tokens.push_back(disks_->submit_write_batch(ops, deepest, elided));
  }
}

void ContextStore::write_wait(PendingIo& io) {
  if (!io.active) return;
  // A token that fails leaves the rest outstanding; the recovery path
  // settles them via DiskArray::drain() before restoring snapshots.
  for (const auto t : io.tokens) disks_->wait(t);
  io.tokens.clear();
  io.active = false;
}

void ContextStore::write(std::uint32_t first, std::uint32_t count,
                         const EmitFn& emit) {
  write_submit(first, count, emit, sync_write_, sync_read_);
  write_wait(sync_write_);
}

void ContextStore::write(std::uint32_t first,
                         std::span<const std::vector<std::byte>> payloads) {
  write(first, static_cast<std::uint32_t>(payloads.size()),
        [&](std::uint32_t ctx, util::Writer& w) {
          w.write_bytes(payloads[ctx - first]);
        });
}

void ContextStore::read_submit(std::uint32_t first, std::uint32_t count,
                               PendingIo& io) {
  if (first + count > num_contexts_) {
    throw std::out_of_range("ContextStore::read: context range");
  }
  const std::uint64_t d = disks_->num_disks();
  io.tokens.clear();
  io.first = first;
  io.count = count;
  io.active = true;
  io.settled = false;
  struct Op {
    std::uint32_t disk;
    std::uint64_t track;
    std::size_t offset;
  };
  std::vector<std::vector<Op>> queues(d);
  io.ctx_offset.resize(count);
  io.expected_len.resize(count);
  io.write_gen.resize(count);
  std::size_t staged = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t used = blocks_for(lengths_[first + i]);
    io.ctx_offset[i] = staged;
    io.expected_len[i] = lengths_[first + i];
    io.write_gen[i] = writes_[first + i];
    for (std::uint64_t b = 0; b < used; ++b) {
      const auto [disk, track] = location(first + i, b);
      queues[disk].push_back(Op{disk, track, staged + b * block_size_});
    }
    staged += used * block_size_;
  }
  // Grow-only: every staged byte is overwritten by the reads, so stale
  // contents need no clearing.
  if (io.buf.size() < staged) io.buf.resize(staged);
  // Mirror of write_submit's batching: one submission, cycles = max
  // per-disk queue depth, per-disk order = queue order.
  std::uint64_t deepest = 0;
  std::vector<em::ReadOp> ops;
  for (const auto& q : queues) {
    deepest = std::max<std::uint64_t>(deepest, q.size());
    for (const Op& op : q) {
      ops.push_back({op.disk, op.track,
                     std::span<std::byte>(io.buf).subspan(op.offset,
                                                          block_size_)});
    }
  }
  if (!ops.empty()) {
    io.tokens.push_back(disks_->submit_read_batch(ops, deepest));
  }
}

ContextStore::Views ContextStore::read_wait(PendingIo& io) {
  if (!io.active) {
    throw std::logic_error("ContextStore::read_wait: no read in flight");
  }
  for (const auto t : io.tokens) disks_->wait(t);
  io.tokens.clear();
  io.active = false;
  io.views.resize(io.count);
  for (std::uint32_t i = 0; i < io.count; ++i) {
    std::uint32_t len = 0;
    std::memcpy(&len, io.buf.data() + io.ctx_offset[i], kLenPrefix);
    if (len != io.expected_len[i] || len > max_context_bytes_) {
      throw std::runtime_error(
          "ContextStore: corrupted context slot for processor " +
          std::to_string(io.first + i));
    }
    io.views[i] = std::span<const std::byte>(io.buf).subspan(
        io.ctx_offset[i] + kLenPrefix, len);
  }
  io.settled = true;
  return io.views;
}

ContextStore::Views ContextStore::read(std::uint32_t first,
                                       std::uint32_t count) {
  read_submit(first, count, sync_read_);
  return read_wait(sync_read_);
}

}  // namespace embsp::sim
