// On-disk storage of virtual processor contexts (Algorithm 1, steps 1(a)
// and 1(e)).
//
//   "We reserve an area of total size v*mu on the disks, v*mu/DB blocks on
//    each disk, where we store the contexts.  We split the context V_j of
//    virtual processor j into blocks of size B and store the i-th block of
//    V_j on disk (i + j*(mu/B)) mod D using track floor((i + j*(mu/B))/D)."
//
// We realize the same idea with a per-context rotation: context j's i-th
// block lives on disk (j + i) mod D inside context j's private track band,
// so reading/writing a group of consecutive contexts drives all D disks in
// parallel even when only each context's *used* blocks are transferred.
//
// Each context slot stores [u32 length][serialized bytes][zero padding].
//
// As an engineering optimization the store keeps each context's current
// length in memory (O(v) words — the same class of metadata as the linked
// buckets' pointer tables) and transfers only the blocks a context
// actually occupies.  The layout (and hence full disk parallelism) is
// unchanged; supersteps in which contexts are small cost proportionally
// less I/O.
//
// A context swap copies nothing it does not have to.  Reads hand out
// views into the block-aligned read staging — the program deserializes
// straight from the bytes the disks delivered — and a write-back compares
// each staged block with the block read from the same track in this
// superstep and drops the physical transfer when the bytes are equal.
// The disk then already holds them, so the image is identical by
// construction, and the model still charges the full µ/B cost.  The
// comparison is made only when the store can show the disk holds the
// image: the store is not journaled (a journaled write goes to the other
// bank), no drive injects faults (eliding would shift the call-indexed
// fault schedule, as coalescing would), and no write of the context has
// been submitted since its image was read.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "em/striped_region.hpp"
#include "util/serialization.hpp"

namespace embsp::sim {

class ContextStore {
 public:
  /// `max_context_bytes` is the paper's mu (serialized size bound).
  ///
  /// With `journaled`, the store keeps TWO banks per context and writes
  /// always go to the non-live bank; commit_epoch() flips the live bank of
  /// every context written since the last commit, discard_epoch() abandons
  /// them.  Until a context's epoch commits, reads still return its
  /// previous committed payload — this is what makes the context area a
  /// consistent checkpoint at superstep boundaries (§5.1) even when a write
  /// attempt dies mid-superstep.  Costs 2x context disk space; layout and
  /// I/O counts are otherwise unchanged.
  ///
  /// `first_vproc` is the global id of context 0 (nonzero when a real
  /// processor of a p > 1 run hosts a slice of the virtual processors); it
  /// only labels RequirementError.
  ContextStore(em::DiskArray& disks, em::TrackAllocators& alloc,
               std::uint32_t num_contexts, std::size_t max_context_bytes,
               bool journaled = false, std::uint32_t first_vproc = 0);

  /// Superstep the next writes belong to (RequirementError::kInit until
  /// the first call); writes that exceed mu name it in their
  /// RequirementError.
  void set_superstep(std::size_t step) { superstep_ = step; }

  /// Blocks per context after padding (mu/B, rounded up, incl. the length
  /// prefix).
  [[nodiscard]] std::uint64_t blocks_per_context() const { return blocks_; }
  [[nodiscard]] std::size_t slot_bytes() const {
    return static_cast<std::size_t>(blocks_) * block_size_;
  }

  /// Physical placement of context `ctx`'s block `block` (for tests).
  [[nodiscard]] std::pair<std::uint32_t, std::uint64_t> location(
      std::uint32_t ctx, std::uint64_t block) const;

  /// Serializes the context of processor `ctx` into the Writer, which
  /// appends directly to the block-aligned staging buffer (no intermediate
  /// per-context vector).
  using EmitFn = std::function<void(std::uint32_t ctx, util::Writer& w)>;

  /// Per-context payload views into a read's staging buffer.
  using Views = std::span<const std::span<const std::byte>>;

  /// One in-flight read or write of a contiguous context range: the staged
  /// bytes, per-context offsets into them, and the completion tokens of the
  /// submitted parallel I/Os.  Owned by the caller so the pipelined
  /// simulator can double-buffer; reused across supersteps (grow-only
  /// buffer).  A settled read also serves as the image the next write of
  /// the same contexts compares against.
  struct PendingIo {
    std::vector<em::DiskArray::IoToken> tokens;
    std::vector<std::byte> buf;
    std::vector<std::size_t> ctx_offset;
    std::vector<std::uint32_t> expected_len;  ///< read: length at submission
    /// read: each context's write count at submission.  The image of a
    /// context is current while the store's count still matches.
    std::vector<std::uint32_t> write_gen;
    std::vector<std::span<const std::byte>> views;  ///< read: payloads
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    bool active = false;
    bool settled = false;  ///< read: waited without error, views valid

    /// Forget the operation without settling it.  Call only once the disk
    /// array has been drained (the abort and rollback paths).
    void reset() {
      tokens.clear();
      active = false;
      settled = false;
    }
  };

  /// Write contexts [first, first+count); `payloads[i]` is the serialized
  /// context of processor first+i and must fit in mu bytes.
  void write(std::uint32_t first,
             std::span<const std::vector<std::byte>> payloads);

  /// Write contexts [first, first+count), serializing each directly into
  /// the staging buffer via `emit` (blocking; same I/O schedule as the
  /// span overload).  Blocks unchanged since the last blocking read()
  /// are elided (see the file comment).
  void write(std::uint32_t first, std::uint32_t count, const EmitFn& emit);

  /// Read contexts [first, first+count) (blocking); returns one view per
  /// context of exactly the bytes previously written.  The views point into
  /// the store's read staging and stay valid until the next read().
  [[nodiscard]] Views read(std::uint32_t first, std::uint32_t count);

  // --- Asynchronous paths (pipelined simulator) ----------------------------
  //
  // Submission stages the data and starts every parallel I/O of the range
  // (same op batching as the blocking calls — one block per disk per
  // operation, so model cost is identical); the matching wait settles the
  // tokens in submission order.  `io.buf` must stay untouched between
  // submit and wait.  Metadata (lengths, journal dirty bits) is updated at
  // submission, exactly when the blocking calls update it.

  void read_submit(std::uint32_t first, std::uint32_t count, PendingIo& io);
  /// Settle `io`'s read; the returned views stay valid until `io` is
  /// submitted again.
  Views read_wait(PendingIo& io);
  /// Stage and submit the write of contexts [first, first+count) into `io`.
  /// `image` is the settled read of the same contexts in this superstep:
  /// a staged block equal to the block it read from the same track is not
  /// transferred (its model cost is still charged when `io` settles).
  void write_submit(std::uint32_t first, std::uint32_t count,
                    const EmitFn& emit, PendingIo& io,
                    const PendingIo& image);
  void write_wait(PendingIo& io);

  [[nodiscard]] std::uint32_t num_contexts() const { return num_contexts_; }
  [[nodiscard]] bool journaled() const { return journaled_; }

  /// Journaled mode only: make every write since the last commit/discard
  /// the live version (flip banks).  In-memory metadata flips only —
  /// no I/O.
  void commit_epoch();

  /// Journaled mode only: abandon every uncommitted write; subsequent reads
  /// keep returning the last committed payloads.
  void discard_epoch();

  /// Epoch tag of the committed state: commit_epoch() increments it,
  /// discard_epoch() leaves it — after a rollback the store still holds
  /// (and names) the last committed superstep boundary.  The parallel
  /// simulator's coordinated recovery and the checkpoint manifest both key
  /// on this tag.  0 until the first commit; counts in non-journaled mode
  /// too (commit is then a pure tag bump).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  void set_epoch(std::uint64_t e) { epoch_ = e; }

  // --- Checkpoint capture/restore (off-model; see sim/checkpoint.hpp) -----
  //
  // Both paths go through Disk::peek_track/restore_track with the
  // fault-unwrapped backend: no model IoStats, no Disk read/write counters,
  // no fault-schedule draws — checkpointing must not perturb the run it
  // snapshots.

  /// Append context `ctx`'s committed record — live-bank tag, length, and
  /// payload bytes read back from the committed bank — to `w`.
  void export_context(std::uint32_t ctx, util::Writer& w);

  /// Restore one context record produced by export_context into this
  /// (freshly constructed, same-shape) store: rewrites the slot's blocks in
  /// the recorded bank and reinstates the length/bank metadata, so every
  /// subsequent location() and write target matches the checkpointed run's.
  void restore_context(std::uint32_t ctx, util::Reader& r);

 private:
  [[nodiscard]] std::uint64_t blocks_for(std::size_t bytes) const {
    return (bytes + sizeof(std::uint32_t) + block_size_ - 1) / block_size_;
  }

  /// Placement of context `ctx`'s block `block` in bank `bank`.
  [[nodiscard]] std::pair<std::uint32_t, std::uint64_t> location_in_bank(
      std::uint32_t ctx, std::uint64_t block, std::uint8_t bank) const;

  em::DiskArray* disks_;
  std::uint32_t num_contexts_;
  std::size_t max_context_bytes_;
  std::uint32_t first_vproc_;
  std::size_t superstep_;
  std::size_t block_size_;
  std::uint64_t blocks_;
  std::uint64_t band_;  ///< tracks per context per disk
  bool journaled_;
  bool elide_;  ///< not journaled and no fault-injecting drive
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> start_tracks_;
  std::vector<std::uint32_t> lengths_;  ///< committed length per context
  std::vector<std::uint32_t> writes_;   ///< writes submitted per context
  std::vector<std::uint8_t> bank_;      ///< live bank (journaled mode)
  std::vector<std::uint8_t> dirty_;     ///< written this epoch
  std::vector<std::uint32_t> pending_lengths_;  ///< uncommitted lengths
  PendingIo sync_read_;   ///< staging slot of the blocking read
  PendingIo sync_write_;  ///< staging slot of the blocking write
};

}  // namespace embsp::sim
