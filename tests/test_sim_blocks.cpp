#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "em/disk_array.hpp"
#include "em/fault_backend.hpp"
#include "em/io_error.hpp"
#include "sim/context_store.hpp"
#include "sim/message_store.hpp"
#include "sim/routing.hpp"
#include "util/rng.hpp"

namespace embsp::sim {
namespace {

// The block format and the MessageStore speak MessageRef views; these
// helpers let the tests keep owning messages as their reference values.

std::vector<bsp::MessageRef> refs_of(
    std::span<const bsp::Message* const> msgs) {
  std::vector<bsp::MessageRef> refs;
  for (const auto* m : msgs) {
    refs.push_back({m->src, m->dst, m->seq, m->payload});
  }
  return refs;
}

std::vector<bsp::MessageRef> refs_of(const std::vector<bsp::Message>& msgs) {
  std::vector<bsp::MessageRef> refs;
  for (const auto& m : msgs) refs.push_back({m.src, m.dst, m.seq, m.payload});
  return refs;
}

/// Owning copies of views that die with their arena.
std::vector<bsp::Message> owned(const std::vector<bsp::MessageRef>& refs) {
  std::vector<bsp::Message> out;
  for (const auto& r : refs) {
    out.push_back({r.src, r.dst, r.seq, {r.payload.begin(), r.payload.end()}});
  }
  return out;
}

std::size_t pack_messages(
    std::span<const bsp::Message* const> msgs, std::uint32_t dst_group,
    std::size_t block_size,
    const std::function<void(std::span<const std::byte>)>& emit) {
  return pack_blocks(refs_of(msgs), dst_group, block_size, emit);
}

/// Reassembles into its own arena and hands back owning messages.
struct OwningReassembler {
  explicit OwningReassembler(std::uint64_t max_message_bytes = 0)
      : r(arena, max_message_bytes) {}
  void absorb(std::span<const std::byte> block, std::uint32_t group) {
    r.absorb(block, group);
  }
  std::vector<bsp::Message> take() { return owned(r.take_refs()); }

  util::Arena arena;
  Reassembler r;
};

void write_messages(MessageStore& store, const std::vector<bsp::Message>& msgs,
                    const std::function<std::uint32_t(std::uint32_t)>& group_of,
                    util::Rng& rng) {
  store.write_message_refs(refs_of(msgs), group_of, rng);
}

std::vector<bsp::Message> fetch_group(MessageStore& store, std::uint32_t g) {
  util::Arena arena;
  return owned(store.fetch_group_refs(g, arena));
}

bsp::Message make_msg(std::uint32_t src, std::uint32_t dst, std::uint32_t seq,
                      std::size_t len) {
  bsp::Message m;
  m.src = src;
  m.dst = dst;
  m.seq = seq;
  m.payload.resize(len);
  for (std::size_t i = 0; i < len; ++i) {
    m.payload[i] =
        static_cast<std::byte>(static_cast<std::uint8_t>(src * 31 + seq + i));
  }
  return m;
}

std::vector<bsp::Message> pack_and_reassemble(
    const std::vector<bsp::Message>& msgs, std::size_t block_size,
    bool shuffle_blocks) {
  std::vector<const bsp::Message*> ptrs;
  for (const auto& m : msgs) ptrs.push_back(&m);
  std::vector<std::vector<std::byte>> blocks;
  pack_messages(ptrs, 0, block_size, [&](std::span<const std::byte> b) {
    blocks.emplace_back(b.begin(), b.end());
  });
  if (shuffle_blocks) {
    util::Rng rng(77);
    for (std::size_t i = blocks.size(); i > 1; --i) {
      std::swap(blocks[i - 1], blocks[rng.below(i)]);
    }
  }
  OwningReassembler r;
  for (const auto& b : blocks) r.absorb(b, 0);
  return r.take();
}

void expect_same_messages(std::vector<bsp::Message> got,
                          std::vector<bsp::Message> want) {
  auto key = [](const bsp::Message& m) {
    return std::make_pair(m.src, m.seq);
  };
  auto cmp = [&](const bsp::Message& a, const bsp::Message& b) {
    return key(a) < key(b);
  };
  std::sort(got.begin(), got.end(), cmp);
  std::sort(want.begin(), want.end(), cmp);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].src, want[i].src);
    EXPECT_EQ(got[i].dst, want[i].dst);
    EXPECT_EQ(got[i].seq, want[i].seq);
    EXPECT_EQ(got[i].payload, want[i].payload);
  }
}

TEST(BlockFormat, SingleSmallMessage) {
  auto msgs = std::vector<bsp::Message>{make_msg(1, 2, 0, 10)};
  expect_same_messages(pack_and_reassemble(msgs, 128, false), msgs);
}

TEST(BlockFormat, EmptyMessage) {
  auto msgs = std::vector<bsp::Message>{make_msg(3, 4, 0, 0)};
  expect_same_messages(pack_and_reassemble(msgs, 64, false), msgs);
}

TEST(BlockFormat, MessageSpanningManyBlocks) {
  auto msgs = std::vector<bsp::Message>{make_msg(0, 1, 0, 1000)};
  expect_same_messages(pack_and_reassemble(msgs, 64, true), msgs);
}

TEST(BlockFormat, ManyMessagesMixedSizesShuffled) {
  std::vector<bsp::Message> msgs;
  for (std::uint32_t i = 0; i < 50; ++i) {
    msgs.push_back(make_msg(i % 5, 1, i, (i * 37) % 300));
  }
  expect_same_messages(pack_and_reassemble(msgs, 96, true), msgs);
}

TEST(BlockFormat, BlocksAreFull) {
  // Packing 10 messages of 100 bytes into 128-byte blocks should produce
  // close to the information-theoretic minimum number of blocks.
  std::vector<bsp::Message> msgs;
  for (std::uint32_t i = 0; i < 10; ++i) msgs.push_back(make_msg(0, 1, i, 100));
  std::vector<const bsp::Message*> ptrs;
  for (const auto& m : msgs) ptrs.push_back(&m);
  std::size_t blocks = 0;
  pack_messages(ptrs, 0, 128,
              [&](std::span<const std::byte>) { ++blocks; });
  // ~1000 payload bytes + ~22 per chunk; with 120 usable per block this
  // needs at least 9 blocks and should not exceed 13.
  EXPECT_GE(blocks, 9u);
  EXPECT_LE(blocks, 13u);
}

TEST(BlockFormat, DummyBlockSkipped) {
  std::vector<std::byte> dummy;
  make_dummy_block(5, 64, dummy);
  EXPECT_TRUE(is_dummy_block(dummy));
  OwningReassembler r;
  r.absorb(dummy, 5);
  EXPECT_TRUE(r.take().empty());
}

TEST(BlockFormat, WrongGroupDetected) {
  auto m = make_msg(0, 1, 0, 8);
  std::vector<const bsp::Message*> ptrs{&m};
  std::vector<std::byte> block;
  pack_messages(ptrs, 3, 64, [&](std::span<const std::byte> b) {
    block.assign(b.begin(), b.end());
  });
  OwningReassembler r;
  EXPECT_THROW(r.absorb(block, 4), std::runtime_error);
}

TEST(BlockFormat, IncompleteMessageDetected) {
  auto m = make_msg(0, 1, 0, 500);
  std::vector<const bsp::Message*> ptrs{&m};
  std::vector<std::vector<std::byte>> blocks;
  pack_messages(ptrs, 0, 64, [&](std::span<const std::byte> b) {
    blocks.emplace_back(b.begin(), b.end());
  });
  ASSERT_GT(blocks.size(), 1u);
  OwningReassembler r;
  r.absorb(blocks[0], 0);  // drop the rest
  EXPECT_THROW(r.take(), std::runtime_error);
}

TEST(BlockFormat, SameSrcSeqDifferentDstKeptApart) {
  // Regression: the reassembler used to key partial messages on (src, seq)
  // only.  seq numbers order messages per (src, dst) pair, so two messages
  // from one sender to *different* receivers in the same group can share a
  // seq — they must reassemble into two intact messages, not be merged.
  std::vector<bsp::Message> msgs{
      make_msg(0, 1, 0, 150),  // spans blocks at block_size 64
      make_msg(0, 2, 0, 150),  // same src, same seq, different dst
  };
  msgs[1].payload.assign(150, std::byte{0xAB});  // distinguishable payloads
  auto got = pack_and_reassemble(msgs, 64, true);
  ASSERT_EQ(got.size(), 2u);
  std::sort(got.begin(), got.end(),
            [](const auto& a, const auto& b) { return a.dst < b.dst; });
  EXPECT_EQ(got[0].dst, 1u);
  EXPECT_EQ(got[0].payload, msgs[0].payload);
  EXPECT_EQ(got[1].dst, 2u);
  EXPECT_EQ(got[1].payload, msgs[1].payload);
}

// --- Adversarial / corrupt-block parsing -----------------------------------
//
// Blocks come back from disk, so every header field is untrusted input: a
// torn write or bit flip can produce counts and lengths that point outside
// the block span or wrap 32-bit arithmetic.  Each test hand-crafts one
// corruption and expects em::CorruptBlockError (never a crash or an
// out-of-bounds access — these are the asan regression cases).

void poke_u32(std::vector<std::byte>& b, std::size_t off, std::uint32_t v) {
  std::memcpy(b.data() + off, &v, 4);
}
void poke_u16(std::vector<std::byte>& b, std::size_t off, std::uint16_t v) {
  std::memcpy(b.data() + off, &v, 2);
}

/// One valid 64-byte block holding a single small message, as a mutable
/// starting point for corruption.
std::vector<std::byte> valid_block(std::size_t block_size = 64,
                                   std::size_t payload_len = 8) {
  auto m = make_msg(1, 2, 0, payload_len);
  std::vector<const bsp::Message*> ptrs{&m};
  std::vector<std::byte> block;
  pack_messages(ptrs, 0, block_size, [&](std::span<const std::byte> b) {
    block.assign(b.begin(), b.end());
  });
  return block;
}

TEST(CorruptBlock, TruncatedHeaderThrows) {
  std::vector<std::byte> tiny(kBlockHeaderBytes - 1, std::byte{0});
  EXPECT_THROW(parse_header(tiny), std::invalid_argument);
  OwningReassembler r;
  EXPECT_THROW(r.absorb(tiny, 0), std::exception);
}

TEST(CorruptBlock, NChunksBeyondSpanThrows) {
  // n_chunks claims more chunk headers than the block can physically hold;
  // the parser must reject it up front instead of walking off the end.
  auto block = valid_block();
  poke_u16(block, 4, 0x7FFF);
  OwningReassembler r;
  EXPECT_THROW(r.absorb(block, 0), em::CorruptBlockError);
}

TEST(CorruptBlock, TruncatedChunkHeaderThrows) {
  // Two chunks claimed, but the block ends inside the second chunk header.
  auto block = valid_block(64, 8);
  poke_u16(block, 4, 2);
  // First chunk: header(22) + 8 payload ends at 8+30=38; 64-38=26 bytes
  // remain, enough for the second header (22) — shrink the block so the
  // second header is cut off.
  block.resize(kBlockHeaderBytes + kChunkHeaderBytes + 8 + 10);
  OwningReassembler r;
  EXPECT_THROW(r.absorb(block, 0), em::CorruptBlockError);
}

TEST(CorruptBlock, ChunkLenPastBlockEndThrows) {
  // chunk_len points past the physical block span.
  auto block = valid_block();
  poke_u16(block, kBlockHeaderBytes + 20, 0xFFF0);
  OwningReassembler r;
  EXPECT_THROW(r.absorb(block, 0), em::CorruptBlockError);
}

TEST(CorruptBlock, OffsetOverflowWrapThrows) {
  // offset + chunk_len wraps 32-bit arithmetic: 0xFFFFFFF8 + 8 == 0 in u32,
  // which would pass a naive `offset + len <= total` check and memcpy to
  // payload.data() + 4 GiB.  The check must be done in 64 bits.
  auto block = valid_block(64, 8);
  poke_u32(block, kBlockHeaderBytes + 16, 0xFFFFFFF8u);
  OwningReassembler r;
  EXPECT_THROW(r.absorb(block, 0), em::CorruptBlockError);
}

TEST(CorruptBlock, OffsetPastTotalLenThrows) {
  // In-range lengths, but the chunk lands past the message's total_len.
  auto block = valid_block(64, 8);
  poke_u32(block, kBlockHeaderBytes + 16, 100);  // offset 100 into an 8-byte msg
  OwningReassembler r;
  EXPECT_THROW(r.absorb(block, 0), em::CorruptBlockError);
}

TEST(CorruptBlock, TotalLenMismatchAcrossChunksThrows) {
  // Two chunks of the "same" message disagree on total_len.  The payload
  // buffer is sized by the first chunk; trusting the second (larger) value
  // used to let the memcpy run past it — a heap overflow.
  auto m = make_msg(1, 2, 0, 100);
  std::vector<const bsp::Message*> ptrs{&m};
  std::vector<std::vector<std::byte>> blocks;
  pack_messages(ptrs, 0, 64, [&](std::span<const std::byte> b) {
    blocks.emplace_back(b.begin(), b.end());
  });
  ASSERT_GE(blocks.size(), 2u);
  poke_u32(blocks[1], kBlockHeaderBytes + 12, 200);  // total_len 100 -> 200
  OwningReassembler r;
  r.absorb(blocks[0], 0);
  EXPECT_THROW(r.absorb(blocks[1], 0), em::CorruptBlockError);
}

TEST(CorruptBlock, OversizedTotalLenRejectedByLimit) {
  // gamma bounds any legitimate message, so a OwningReassembler built with that
  // cap rejects absurd total_len values before allocating the buffer.
  auto block = valid_block(64, 8);
  poke_u32(block, kBlockHeaderBytes + 12, 1u << 20);  // total_len = 1 MiB
  poke_u32(block, kBlockHeaderBytes + 16, 0);         // keep offset sane
  OwningReassembler capped(1024);
  EXPECT_THROW(capped.absorb(block, 0), em::CorruptBlockError);
  // An uncapped reassembler accepts the header (the chunk itself is
  // in-bounds) and reports the message incomplete at take() time.
  OwningReassembler uncapped;
  uncapped.absorb(block, 0);
  EXPECT_THROW(uncapped.take(), std::runtime_error);
}

TEST(CorruptBlock, GarbledBlockFuzzNeverCrashes) {
  // Byte-soup fuzz: random corruptions of valid blocks plus fully random
  // blocks.  absorb() must either succeed or throw an exception — never
  // read or write out of bounds (asan enforces the "never" part).
  util::Rng rng(2026);
  std::vector<bsp::Message> msgs;
  for (std::uint32_t i = 0; i < 8; ++i) {
    msgs.push_back(make_msg(i, 1, i, (i * 53) % 200));
  }
  std::vector<const bsp::Message*> ptrs;
  for (const auto& m : msgs) ptrs.push_back(&m);
  std::vector<std::vector<std::byte>> blocks;
  pack_messages(ptrs, 0, 96, [&](std::span<const std::byte> b) {
    blocks.emplace_back(b.begin(), b.end());
  });
  ASSERT_FALSE(blocks.empty());
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::byte> block;
    if (iter % 4 == 0) {
      block.resize(96);
      for (auto& byte : block) {
        byte = static_cast<std::byte>(rng.below(256));
      }
      poke_u32(block, 0, 0);  // pass the dst_group check, fuzz the rest
    } else {
      block = blocks[rng.below(blocks.size())];
      const std::size_t flips = 1 + rng.below(6);
      for (std::size_t f = 0; f < flips; ++f) {
        block[rng.below(block.size())] ^=
            static_cast<std::byte>(1u << rng.below(8));
      }
    }
    OwningReassembler r(4096);
    try {
      r.absorb(block, 0);
      (void)r.take();
    } catch (const std::exception&) {
      // Detected corruption is the expected outcome; crashing is not.
    }
  }
}

/// Owning copies of the payload views a blocking read returns (the views
/// die with the store's next read).
std::vector<std::vector<std::byte>> read_copies(ContextStore& store,
                                                std::uint32_t first,
                                                std::uint32_t count) {
  std::vector<std::vector<std::byte>> out;
  for (const auto view : store.read(first, count)) {
    out.emplace_back(view.begin(), view.end());
  }
  return out;
}

TEST(ContextStore, RoundTripVariableSizes) {
  em::DiskArray disks(4, 64);
  em::TrackAllocators alloc(4);
  ContextStore store(disks, alloc, 10, 100);
  std::vector<std::vector<std::byte>> payloads;
  for (std::uint32_t i = 0; i < 10; ++i) {
    payloads.emplace_back(i * 9, static_cast<std::byte>(i + 1));
  }
  store.write(0, payloads);
  auto got = read_copies(store, 0, 10);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(got[i], payloads[i]);
}

TEST(ContextStore, PartialGroupReadWrite) {
  em::DiskArray disks(2, 32);
  em::TrackAllocators alloc(2);
  ContextStore store(disks, alloc, 8, 40);
  std::vector<std::vector<std::byte>> payloads;
  for (std::uint32_t i = 0; i < 3; ++i) {
    payloads.emplace_back(20, static_cast<std::byte>(0x40 + i));
  }
  store.write(4, payloads);
  auto got = read_copies(store, 4, 3);
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_EQ(got[i], payloads[i]);
}

TEST(ContextStore, OversizedContextThrows) {
  em::DiskArray disks(2, 32);
  em::TrackAllocators alloc(2);
  ContextStore store(disks, alloc, 4, 40);
  std::vector<std::vector<std::byte>> payloads{std::vector<std::byte>(41)};
  EXPECT_THROW(store.write(0, payloads), std::runtime_error);
}

TEST(ContextStore, FullyParallelGroupAccess) {
  // Reading k consecutive contexts must use all D disks on every I/O.
  em::DiskArray disks(4, 64);
  em::TrackAllocators alloc(4);
  ContextStore store(disks, alloc, 16, 60);  // 1 block per context
  std::vector<std::vector<std::byte>> payloads(8,
                                               std::vector<std::byte>(60));
  store.write(0, payloads);
  disks.reset_stats();
  (void)read_copies(store, 0, 8);
  EXPECT_EQ(disks.stats().parallel_ios, 2u);  // 8 blocks / 4 disks
  EXPECT_DOUBLE_EQ(disks.stats().utilization(4), 1.0);
}

// --- ContextStore write elision ----------------------------------------------
//
// A write-back drops the transfer of every block that equals the block read
// from the same track since the context's last write.  The model charge and
// the disk image must be those of a plain write.

constexpr std::size_t kElideBlock = 64;
constexpr std::uint32_t kElideContexts = 8;
constexpr std::size_t kElideMu = 200;  // 4 blocks incl. the length prefix

std::vector<std::byte> elide_payload(std::size_t len, std::uint32_t seed) {
  std::vector<std::byte> out(len);
  for (std::size_t i = 0; i < len; ++i) {
    out[i] = static_cast<std::byte>((seed * 37 + i * 11 + 5) & 0xFF);
  }
  return out;
}

std::vector<std::vector<std::byte>> elide_payloads(std::uint32_t seed) {
  std::vector<std::vector<std::byte>> out;
  for (std::uint32_t c = 0; c < kElideContexts; ++c) {
    out.push_back(elide_payload(30 + 23 * c, seed + c));
  }
  return out;
}

std::uint64_t physical_writes(const em::DiskArray& disks) {
  std::uint64_t n = 0;
  for (std::size_t d = 0; d < disks.num_disks(); ++d) {
    n += disks.disk(d).writes();
  }
  return n;
}

std::uint64_t slot_blocks(std::size_t len) {
  return (len + sizeof(std::uint32_t) + kElideBlock - 1) / kElideBlock;
}

std::uint64_t total_slot_blocks(
    const std::vector<std::vector<std::byte>>& payloads) {
  std::uint64_t n = 0;
  for (const auto& p : payloads) n += slot_blocks(p.size());
  return n;
}

/// Every block context `ctx` occupies holds the staged slot of `payload`
/// ([u32 length][payload][zero pad]), read back off-model.
void expect_disk_holds(em::DiskArray& disks, const ContextStore& store,
                       std::uint32_t ctx,
                       const std::vector<std::byte>& payload) {
  const std::uint64_t used = slot_blocks(payload.size());
  std::vector<std::byte> slot(used * kElideBlock, std::byte{0});
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::memcpy(slot.data(), &len, sizeof(len));
  std::memcpy(slot.data() + sizeof(len), payload.data(), payload.size());
  std::vector<std::byte> track(kElideBlock);
  for (std::uint64_t b = 0; b < used; ++b) {
    const auto [disk, t] = store.location(ctx, b);
    em::Disk& d = disks.disk(disk);
    d.peek_track(t, track, em::unwrap_faults(d.backend()));
    EXPECT_TRUE(std::equal(track.begin(), track.end(),
                           slot.begin() + b * kElideBlock))
        << "context " << ctx << " block " << b;
  }
}

void expect_disk_holds_all(em::DiskArray& disks, const ContextStore& store,
                           const std::vector<std::vector<std::byte>>& payloads) {
  for (std::uint32_t c = 0; c < payloads.size(); ++c) {
    expect_disk_holds(disks, store, c, payloads[c]);
  }
}

void expect_same_charge(const em::IoStats& a, const em::IoStats& b) {
  EXPECT_EQ(a.parallel_ios, b.parallel_ios);
  EXPECT_EQ(a.blocks_read, b.blocks_read);
  EXPECT_EQ(a.blocks_written, b.blocks_written);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
}

class ContextElision : public ::testing::TestWithParam<em::IoEngine> {
 protected:
  std::unique_ptr<em::DiskArray> make_disks() const {
    return em::make_disk_array(GetParam(), 4, kElideBlock);
  }
};

TEST_P(ContextElision, IdenticalRewriteElidesEveryTrackYetChargesInFull) {
  const auto payloads = elide_payloads(1);
  // The charge of a plain write: the first write has no image to compare.
  auto plain_disks = make_disks();
  em::TrackAllocators plain_alloc(4);
  ContextStore plain(*plain_disks, plain_alloc, kElideContexts, kElideMu);
  plain.write(0, payloads);
  const em::IoStats plain_charge = plain_disks->stats();
  EXPECT_EQ(physical_writes(*plain_disks), total_slot_blocks(payloads));
  EXPECT_EQ(plain_disks->engine_stats().total_elided_tracks(), 0u);

  auto disks = make_disks();
  em::TrackAllocators alloc(4);
  ContextStore store(*disks, alloc, kElideContexts, kElideMu);
  store.write(0, payloads);
  ContextStore::PendingIo rd;
  ContextStore::PendingIo wr;
  store.read_submit(0, kElideContexts, rd);
  (void)store.read_wait(rd);
  const std::uint64_t writes_before = physical_writes(*disks);
  const em::IoStats before = disks->stats();
  store.write_submit(
      0, kElideContexts,
      [&](std::uint32_t ctx, util::Writer& w) { w.write_bytes(payloads[ctx]); },
      wr, rd);
  // Charged when the token settles, like any batch.
  EXPECT_EQ(disks->stats().parallel_ios, before.parallel_ios);
  store.write_wait(wr);
  expect_same_charge(disks->stats().since(before), plain_charge);
  EXPECT_EQ(physical_writes(*disks), writes_before);
  EXPECT_EQ(disks->engine_stats().total_elided_tracks(),
            total_slot_blocks(payloads));
  expect_disk_holds_all(*disks, store, payloads);
  EXPECT_EQ(read_copies(store, 0, kElideContexts), payloads);
}

TEST_P(ContextElision, OneChangedByteWritesExactlyThatBlock) {
  auto payloads = elide_payloads(2);
  auto disks = make_disks();
  em::TrackAllocators alloc(4);
  ContextStore store(*disks, alloc, kElideContexts, kElideMu);
  store.write(0, payloads);
  (void)store.read(0, kElideContexts);
  // Byte 100 of context 6's payload sits in its slot block 1.
  payloads[6][100] ^= std::byte{0x5A};
  const auto [disk, track] = store.location(6, 1);
  const std::uint64_t disk_writes = disks->disk(disk).writes();
  const std::uint64_t writes_before = physical_writes(*disks);
  store.write(0, payloads);
  EXPECT_EQ(physical_writes(*disks), writes_before + 1);
  EXPECT_EQ(disks->disk(disk).writes(), disk_writes + 1);
  EXPECT_EQ(disks->engine_stats().total_elided_tracks(),
            total_slot_blocks(payloads) - 1);
  expect_disk_holds_all(*disks, store, payloads);
  EXPECT_EQ(read_copies(store, 0, kElideContexts), payloads);
}

TEST_P(ContextElision, GrownContextWritesItsNewBlocks) {
  auto payloads = elide_payloads(3);
  payloads[2] = elide_payload(40, 9);  // one block
  payloads[5] = elide_payload(180, 10);  // three blocks
  auto disks = make_disks();
  em::TrackAllocators alloc(4);
  ContextStore store(*disks, alloc, kElideContexts, kElideMu);
  store.write(0, payloads);

  // Context 2 grows from one block to three: the length prefix changes
  // block 0, and blocks 1 and 2 are past its old extent.
  (void)store.read(0, kElideContexts);
  payloads[2] = elide_payload(180, 9);
  std::uint64_t writes_before = physical_writes(*disks);
  std::uint64_t elided_before = disks->engine_stats().total_elided_tracks();
  store.write(0, payloads);
  EXPECT_EQ(physical_writes(*disks), writes_before + 3);
  EXPECT_EQ(disks->engine_stats().total_elided_tracks() - elided_before,
            total_slot_blocks(payloads) - 3);
  expect_disk_holds_all(*disks, store, payloads);

  // Context 5 shrinks to one block and grows back to the same three: its
  // old blocks 1 and 2 are still on disk, but past the extent the read
  // saw, so they are written again.
  const auto full = payloads[5];
  (void)store.read(0, kElideContexts);
  payloads[5] = elide_payload(20, 11);
  store.write(0, payloads);
  (void)store.read(0, kElideContexts);
  payloads[5] = full;
  writes_before = physical_writes(*disks);
  elided_before = disks->engine_stats().total_elided_tracks();
  store.write(0, payloads);
  EXPECT_EQ(physical_writes(*disks), writes_before + 3);
  EXPECT_EQ(disks->engine_stats().total_elided_tracks() - elided_before,
            total_slot_blocks(payloads) - 3);
  expect_disk_holds_all(*disks, store, payloads);
  EXPECT_EQ(read_copies(store, 0, kElideContexts), payloads);
}

TEST_P(ContextElision, JournaledStoreNeverElides) {
  const auto payloads = elide_payloads(4);
  auto disks = make_disks();
  em::TrackAllocators alloc(4);
  ContextStore store(*disks, alloc, kElideContexts, kElideMu,
                     /*journaled=*/true);
  store.write(0, payloads);
  store.commit_epoch();
  (void)store.read(0, kElideContexts);
  const std::uint64_t writes_before = physical_writes(*disks);
  store.write(0, payloads);
  store.commit_epoch();
  EXPECT_EQ(physical_writes(*disks),
            writes_before + total_slot_blocks(payloads));
  EXPECT_EQ(disks->engine_stats().total_elided_tracks(), 0u);
  expect_disk_holds_all(*disks, store, payloads);
  EXPECT_EQ(read_copies(store, 0, kElideContexts), payloads);
}

TEST_P(ContextElision, FaultInjectingArrayNeverElides) {
  // No fault ever fires (all rates zero), but the schedule counts backend
  // calls, so the store must keep every one of them.
  auto disks = em::make_disk_array(
      GetParam(), 4, kElideBlock, [](std::size_t d) {
        return std::make_unique<em::FaultInjectingBackend>(
            em::make_memory_backend(), em::FaultSpec{}, 7,
            static_cast<std::uint32_t>(d));
      });
  const auto payloads = elide_payloads(5);
  em::TrackAllocators alloc(4);
  ContextStore store(*disks, alloc, kElideContexts, kElideMu);
  store.write(0, payloads);
  (void)store.read(0, kElideContexts);
  const std::uint64_t writes_before = physical_writes(*disks);
  store.write(0, payloads);
  EXPECT_EQ(physical_writes(*disks),
            writes_before + total_slot_blocks(payloads));
  EXPECT_EQ(disks->engine_stats().total_elided_tracks(), 0u);
  expect_disk_holds_all(*disks, store, payloads);
  EXPECT_EQ(read_copies(store, 0, kElideContexts), payloads);
}

TEST_P(ContextElision, SecondWriteAfterOneReadWritesEverything) {
  // The stale-image hazard: after x → read → y, the image still holds x,
  // but the disk holds y.  Writing x again must write every block.
  const auto x = elide_payloads(6);
  const auto y = elide_payloads(60);
  const auto emit_of = [](const std::vector<std::vector<std::byte>>& p) {
    return [&p](std::uint32_t ctx, util::Writer& w) {
      w.write_bytes(p[ctx]);
    };
  };
  {
    // Blocking path: the image is the store's own read slot.
    auto disks = make_disks();
    em::TrackAllocators alloc(4);
    ContextStore store(*disks, alloc, kElideContexts, kElideMu);
    store.write(0, x);
    (void)store.read(0, kElideContexts);
    store.write(0, y);
    expect_disk_holds_all(*disks, store, y);
    const std::uint64_t writes_before = physical_writes(*disks);
    store.write(0, x);
    EXPECT_EQ(physical_writes(*disks), writes_before + total_slot_blocks(x));
    expect_disk_holds_all(*disks, store, x);
    EXPECT_EQ(read_copies(store, 0, kElideContexts), x);
  }
  {
    // Asynchronous path: the caller hands the same image twice.
    auto disks = make_disks();
    em::TrackAllocators alloc(4);
    ContextStore store(*disks, alloc, kElideContexts, kElideMu);
    store.write(0, x);
    ContextStore::PendingIo rd;
    ContextStore::PendingIo wr;
    store.read_submit(0, kElideContexts, rd);
    (void)store.read_wait(rd);
    store.write_submit(0, kElideContexts, emit_of(y), wr, rd);
    store.write_wait(wr);
    expect_disk_holds_all(*disks, store, y);
    const std::uint64_t writes_before = physical_writes(*disks);
    store.write_submit(0, kElideContexts, emit_of(x), wr, rd);
    store.write_wait(wr);
    EXPECT_EQ(physical_writes(*disks), writes_before + total_slot_blocks(x));
    expect_disk_holds_all(*disks, store, x);
    EXPECT_EQ(read_copies(store, 0, kElideContexts), x);
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, ContextElision,
                         ::testing::Values(em::IoEngine::serial,
                                           em::IoEngine::parallel));

class MessageStoreTest : public ::testing::TestWithParam<RoutingMode> {};

TEST_P(MessageStoreTest, WriteReorganizeFetchRoundTrip) {
  em::DiskArray disks(4, 128);
  em::TrackAllocators alloc(4);
  MessageStore store(disks, alloc,
                     MessageStoreConfig{8, 32, GetParam()});
  util::Rng rng(9);

  // 8 groups of 4 destination processors each (group = dst / 4).
  std::vector<bsp::Message> msgs;
  for (std::uint32_t i = 0; i < 100; ++i) {
    msgs.push_back(make_msg(i % 16, i % 32, i, (i * 11) % 200));
  }
  write_messages(store, msgs, [](std::uint32_t dst) { return dst / 4; }, rng);
  store.flush(rng);
  store.reorganize(rng);

  std::vector<bsp::Message> got;
  for (std::uint32_t g = 0; g < 8; ++g) {
    auto part = fetch_group(store, g);
    for (auto& m : part) {
      EXPECT_EQ(m.dst / 4, g);
      got.push_back(std::move(m));
    }
  }
  expect_same_messages(got, msgs);
}

TEST_P(MessageStoreTest, SecondSuperstepReusesSpace) {
  em::DiskArray disks(2, 128);
  em::TrackAllocators alloc(2);
  MessageStore store(disks, alloc, MessageStoreConfig{4, 16, GetParam()});
  util::Rng rng(10);
  const auto group_of = [](std::uint32_t dst) { return dst / 2; };

  for (int superstep = 0; superstep < 3; ++superstep) {
    std::vector<bsp::Message> msgs;
    for (std::uint32_t i = 0; i < 20; ++i) {
      msgs.push_back(make_msg(i, i % 8, i + superstep * 100, 50));
    }
    write_messages(store, msgs, group_of, rng);
    store.flush(rng);
    store.reorganize(rng);
    std::vector<bsp::Message> got;
    for (std::uint32_t g = 0; g < 4; ++g) {
      auto part = fetch_group(store, g);
      got.insert(got.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
    }
    expect_same_messages(got, msgs);
  }
  // Linked-bucket tracks must have been recycled: space bounded by the
  // reserved regions plus one superstep of staging.
  EXPECT_LT(disks.max_tracks_used(), 200u);
}

TEST_P(MessageStoreTest, CapacityOverflowDiagnosed) {
  em::DiskArray disks(2, 128);
  em::TrackAllocators alloc(2);
  MessageStore store(disks, alloc, MessageStoreConfig{2, 2, GetParam()});
  util::Rng rng(11);
  std::vector<bsp::Message> msgs;
  for (std::uint32_t i = 0; i < 50; ++i) msgs.push_back(make_msg(0, 0, i, 100));
  EXPECT_THROW(write_messages(store,
                   msgs, [](std::uint32_t) { return 0u; }, rng),
               std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Modes, MessageStoreTest,
                         ::testing::Values(RoutingMode::compact,
                                           RoutingMode::padded,
                                           RoutingMode::deterministic),
                         [](const auto& info) {
                           switch (info.param) {
                             case RoutingMode::compact:
                               return "compact";
                             case RoutingMode::padded:
                               return "padded";
                             default:
                               return "deterministic";
                           }
                         });

TEST(MessageStore, DeterministicModeBalancesExactly) {
  // Round-robin placement makes every bucket's chain lengths differ by at
  // most one across the disks — deterministic, not just w.h.p.
  em::DiskArray disks(4, 128);
  em::TrackAllocators alloc(4);
  MessageStore store(disks, alloc,
                     MessageStoreConfig{4, 256, RoutingMode::deterministic});
  util::Rng rng(21);
  std::vector<bsp::Message> msgs;
  for (std::uint32_t i = 0; i < 300; ++i) {
    msgs.push_back(make_msg(i, i % 8, i, 100));
  }
  write_messages(store, msgs, [](std::uint32_t dst) { return dst / 2; }, rng);
  store.flush(rng);
  const auto& buckets = store.buckets();
  for (std::uint32_t b = 0; b < 4; ++b) {
    std::size_t lo = SIZE_MAX, hi = 0;
    for (std::uint32_t d = 0; d < 4; ++d) {
      lo = std::min(lo, buckets.blocks_on_disk(b, d));
      hi = std::max(hi, buckets.blocks_on_disk(b, d));
    }
    if (hi > 0) {
      EXPECT_LE(hi - lo, 1u) << "bucket " << b;
    }
  }
}

TEST(MessageStore, PaddedModeWritesFullCapacity) {
  em::DiskArray disks(2, 128);
  em::TrackAllocators alloc(2);
  MessageStore store(disks, alloc,
                     MessageStoreConfig{4, 8, RoutingMode::padded});
  util::Rng rng(12);
  // No traffic at all: padded mode still routes 4 groups x 8 dummy blocks.
  auto stats = store.reorganize(rng);
  EXPECT_EQ(stats.blocks_total, 32u);
  EXPECT_EQ(stats.dummy_blocks, 32u);
  for (std::uint32_t g = 0; g < 4; ++g) {
    EXPECT_EQ(store.group_blocks(g), 8u);
    EXPECT_TRUE(fetch_group(store, g).empty());  // dummies skipped
  }
}

TEST(MessageStore, CompactModeNoTrafficNoIo) {
  em::DiskArray disks(2, 128);
  em::TrackAllocators alloc(2);
  MessageStore store(disks, alloc,
                     MessageStoreConfig{4, 8, RoutingMode::compact});
  util::Rng rng(13);
  auto stats = store.reorganize(rng);
  EXPECT_EQ(stats.blocks_total, 0u);
  EXPECT_EQ(disks.stats().parallel_ios, 0u);
}

TEST(MessageStore, RoutingBalanceStats) {
  em::DiskArray disks(4, 128);
  em::TrackAllocators alloc(4);
  MessageStore store(disks, alloc,
                     MessageStoreConfig{8, 64, RoutingMode::compact});
  util::Rng rng(14);
  std::vector<bsp::Message> msgs;
  for (std::uint32_t i = 0; i < 400; ++i) {
    msgs.push_back(make_msg(i, i % 16, i, 90));
  }
  write_messages(store, msgs, [](std::uint32_t dst) { return dst / 2; }, rng);
  store.flush(rng);
  auto stats = store.reorganize(rng);
  EXPECT_GT(stats.blocks_total, 0u);
  // Each bucket holds ~blocks_total/D blocks; Lemma 2 says the max chain is
  // close to blocks_total/D^2 — allow generous slack but catch gross
  // imbalance (e.g. everything on one disk).
  EXPECT_LT(stats.max_chain, stats.blocks_total / 4);
}

}  // namespace
}  // namespace embsp::sim
