// Concurrency tests for the parallel I/O engine (ParallelDiskArray).
//
// These tests are built into the `sanitize` ctest label: run them under
// ThreadSanitizer (cmake --preset tsan) to validate the engine's
// synchronization, and under ASan/UBSan (cmake --preset asan) for memory
// discipline.  They hammer the engine with mixed track reads/writes both
// directly and through the simulator path (ContextStore / MessageStore /
// LinkedBuckets all batching through parallel I/Os), and assert that the
// serial and parallel engines produce byte-identical disk images.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "em/parallel_disk_array.hpp"
#include "sim/par_simulator.hpp"
#include "sim/seq_simulator.hpp"
#include "test_programs.hpp"
#include "util/rng.hpp"

namespace embsp::em {
namespace {

namespace fs = std::filesystem;

std::vector<std::byte> pattern_block(std::size_t size, std::uint64_t tag) {
  std::vector<std::byte> b(size);
  for (std::size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::byte>(
        static_cast<std::uint8_t>(tag * 131 + i * 7 + 3));
  }
  return b;
}

TEST(ParallelDiskArray, RoundTripMatchesPattern) {
  constexpr std::size_t kD = 4, kB = 256;
  ParallelDiskArray arr(kD, kB);
  std::vector<std::vector<std::byte>> blocks;
  std::vector<WriteOp> writes;
  for (std::uint32_t d = 0; d < kD; ++d) {
    blocks.push_back(pattern_block(kB, d + 1));
  }
  for (std::uint32_t d = 0; d < kD; ++d) {
    writes.push_back({d, 7, blocks[d]});
  }
  arr.parallel_write(writes);

  std::vector<std::byte> buf(kD * kB);
  std::vector<ReadOp> reads;
  for (std::uint32_t d = 0; d < kD; ++d) {
    reads.push_back(
        {d, 7, std::span<std::byte>(buf).subspan(d * kB, kB)});
  }
  arr.parallel_read(reads);
  for (std::uint32_t d = 0; d < kD; ++d) {
    EXPECT_EQ(std::memcmp(buf.data() + d * kB, blocks[d].data(), kB), 0)
        << "disk " << d;
  }
  EXPECT_EQ(arr.stats().parallel_ios, 2u);
  EXPECT_EQ(arr.engine_stats().max_queue_depth, kD);
  for (std::uint32_t d = 0; d < kD; ++d) {
    EXPECT_EQ(arr.engine_stats().per_disk[d].ops, 2u) << "disk " << d;
    EXPECT_EQ(arr.engine_stats().per_disk[d].bytes, 2 * kB) << "disk " << d;
  }
}

TEST(ParallelDiskArray, MixedReadWriteHammer) {
  // The TSan workhorse: many full- and partial-width operations with
  // verified contents, driving every worker through thousands of
  // dispatch/join cycles.
  constexpr std::size_t kD = 8, kB = 128, kTracks = 32;
  ParallelDiskArray arr(kD, kB);
  util::Rng rng(99);
  // shadow[d][t] = tag of the block last written there (0 = never).
  std::vector<std::vector<std::uint64_t>> shadow(
      kD, std::vector<std::uint64_t>(kTracks, 0));
  std::uint64_t next_tag = 1;
  std::vector<std::byte> buf(kD * kB);
  std::vector<std::vector<std::byte>> pending;
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t width = 1 + rng.below(kD);
    std::vector<std::uint32_t> disks(kD);
    for (std::uint32_t d = 0; d < kD; ++d) disks[d] = d;
    for (std::size_t i = 0; i < width; ++i) {
      std::swap(disks[i], disks[i + rng.below(kD - i)]);
    }
    if (iter % 2 == 0) {
      std::vector<WriteOp> ops;
      pending.clear();
      for (std::size_t i = 0; i < width; ++i) {
        const std::uint64_t track = rng.below(kTracks);
        const std::uint64_t tag = next_tag++;
        pending.push_back(pattern_block(kB, tag));
        shadow[disks[i]][track] = tag;
        ops.push_back({disks[i], track, pending.back()});
      }
      arr.parallel_write(ops);
    } else {
      std::vector<ReadOp> ops;
      std::vector<std::pair<std::uint32_t, std::uint64_t>> what;
      for (std::size_t i = 0; i < width; ++i) {
        const std::uint64_t track = rng.below(kTracks);
        ops.push_back({disks[i], track,
                       std::span<std::byte>(buf).subspan(i * kB, kB)});
        what.emplace_back(disks[i], track);
      }
      arr.parallel_read(ops);
      for (std::size_t i = 0; i < width; ++i) {
        const auto [d, t] = what[i];
        const auto got = std::span<const std::byte>(buf).subspan(i * kB, kB);
        if (shadow[d][t] == 0) {
          for (auto c : got) ASSERT_EQ(c, std::byte{0});
        } else {
          const auto want = pattern_block(kB, shadow[d][t]);
          ASSERT_EQ(std::memcmp(got.data(), want.data(), kB), 0)
              << "disk " << d << " track " << t;
        }
      }
    }
  }
  arr.sync();
  EXPECT_EQ(arr.engine_stats().total_ops(),
            arr.stats().blocks_read + arr.stats().blocks_written);
}

TEST(ParallelDiskArray, FileBackendHammer) {
  // Same engine over pread/pwrite file backends — exercises concurrent
  // positioned I/O on real file descriptors.
  constexpr std::size_t kD = 4, kB = 512;
  const auto dir = fs::temp_directory_path();
  ParallelDiskArray arr(kD, kB, [&](std::size_t d) {
    return make_file_backend(
        (dir / ("embsp_par_hammer_" + std::to_string(d) + ".bin")).string());
  });
  std::vector<std::vector<std::byte>> blocks;
  for (std::uint32_t d = 0; d < kD; ++d) {
    blocks.push_back(pattern_block(kB, 40 + d));
  }
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<WriteOp> writes;
    for (std::uint32_t d = 0; d < kD; ++d) {
      writes.push_back({d, static_cast<std::uint64_t>(iter), blocks[d]});
    }
    arr.parallel_write(writes);
    std::vector<std::byte> buf(kD * kB);
    std::vector<ReadOp> reads;
    for (std::uint32_t d = 0; d < kD; ++d) {
      reads.push_back({d, static_cast<std::uint64_t>(iter),
                       std::span<std::byte>(buf).subspan(d * kB, kB)});
    }
    arr.parallel_read(reads);
    for (std::uint32_t d = 0; d < kD; ++d) {
      ASSERT_EQ(std::memcmp(buf.data() + d * kB, blocks[d].data(), kB), 0);
    }
  }
  arr.sync();
  EXPECT_EQ(arr.engine_stats().max_queue_depth, kD);
}

TEST(ParallelDiskArray, WorkerErrorsPropagateAndArrayStaysUsable) {
  ParallelDiskArray arr(2, 64, nullptr, /*capacity_tracks_per_disk=*/4);
  auto b = pattern_block(64, 1);
  std::vector<WriteOp> bad{{0u, 99u, b}};  // beyond capacity: throws on worker
  EXPECT_THROW(arr.parallel_write(bad), std::out_of_range);
  std::vector<WriteOp> ok{{0u, 1u, b}, {1u, 2u, b}};
  arr.parallel_write(ok);
  std::vector<std::byte> out(64);
  std::vector<ReadOp> rd{{0u, 1u, out}};
  arr.parallel_read(rd);
  EXPECT_EQ(out, b);
}

// --- Simulator-path tests ---------------------------------------------------

using embsp::testing::IrregularProgram;

sim::SimConfig engine_config(em::IoEngine engine, std::uint32_t p,
                             std::uint32_t v) {
  sim::SimConfig cfg;
  cfg.machine.p = p;
  cfg.machine.bsp.v = v;
  cfg.machine.em.D = 4;
  cfg.machine.em.B = 128;
  cfg.machine.em.M = 1 << 20;
  cfg.mu = 64;
  cfg.gamma = 4096;
  cfg.io_engine = engine;
  return cfg;
}

TEST(ParallelEngine, SeqSimulatorHammer) {
  // Drive the full simulator path (ContextStore, MessageStore,
  // LinkedBuckets, SimulateRouting) through the worker pool.
  auto cfg = engine_config(em::IoEngine::parallel, 1, 16);
  sim::SeqSimulator simr(cfg);
  std::vector<std::uint64_t> sums;
  auto result = simr.run<IrregularProgram>(
      IrregularProgram{}, [](std::uint32_t) { return IrregularProgram::State{}; },
      [&](std::uint32_t, IrregularProgram::State& s) {
        sums.push_back(s.checksum);
      });
  EXPECT_EQ(sums.size(), 16u);
  EXPECT_GT(result.total_io.parallel_ios, 0u);
  const auto& eng = simr.disks().engine_stats();
  EXPECT_EQ(eng.max_queue_depth, 4u);  // all D transfers issued per I/O
  // Every block the model charges is either transferred or an unchanged
  // context block whose write was elided.
  EXPECT_EQ(eng.total_ops() + eng.total_elided_tracks(),
            result.total_io.blocks_read + result.total_io.blocks_written);
}

TEST(ParallelEngine, ParSimulatorHammer) {
  // p simulator threads, each owning a private worker pool.
  auto cfg = engine_config(em::IoEngine::parallel, 2, 16);
  sim::ParSimulator simr(cfg);
  std::vector<std::uint64_t> sums;
  simr.run<IrregularProgram>(
      IrregularProgram{}, [](std::uint32_t) { return IrregularProgram::State{}; },
      [&](std::uint32_t, IrregularProgram::State& s) {
        sums.push_back(s.checksum);
      });
  EXPECT_EQ(sums.size(), 16u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(simr.disks(i).engine_stats().max_queue_depth, 4u);
  }
}

TEST(ParallelEngine, SerialAndParallelDiskImagesAreByteIdentical) {
  // For a fixed seed the two engines must leave bit-for-bit identical
  // backing files: the engine changes only wall-clock overlap, never
  // placement, ordering of visibility, or content.
  const auto dir = fs::temp_directory_path();
  auto files_for = [&](const char* variant, std::size_t d) {
    return (dir / ("embsp_det_" + std::string(variant) + "_" +
                   std::to_string(d) + ".bin"))
        .string();
  };
  std::vector<std::uint64_t> sums[2];
  for (int which = 0; which < 2; ++which) {
    const char* variant = which == 0 ? "serial" : "parallel";
    // keep=true preserves pre-existing files (no truncation), so scrub any
    // leftovers from an interrupted earlier run before comparing images.
    for (std::size_t d = 0; d < 4; ++d) fs::remove(files_for(variant, d));
    auto cfg = engine_config(
        which == 0 ? em::IoEngine::serial : em::IoEngine::parallel, 1, 16);
    sim::SeqSimulator simr(cfg, [&](std::size_t d) {
      return em::make_file_backend(files_for(variant, d), /*keep=*/true);
    });
    simr.run<IrregularProgram>(
        IrregularProgram{},
        [](std::uint32_t) { return IrregularProgram::State{}; },
        [&](std::uint32_t, IrregularProgram::State& s) {
          sums[which].push_back(s.checksum);
        });
  }
  EXPECT_EQ(sums[0], sums[1]);
  for (std::size_t d = 0; d < 4; ++d) {
    const auto a = files_for("serial", d);
    const auto b = files_for("parallel", d);
    ASSERT_TRUE(fs::exists(a)) << a;
    ASSERT_TRUE(fs::exists(b)) << b;
    EXPECT_EQ(fs::file_size(a), fs::file_size(b)) << "disk " << d;
    std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
    std::vector<char> ca((std::istreambuf_iterator<char>(fa)),
                         std::istreambuf_iterator<char>());
    std::vector<char> cb((std::istreambuf_iterator<char>(fb)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(ca, cb) << "disk image " << d << " differs between engines";
    fs::remove(a);
    fs::remove(b);
  }
}

}  // namespace
}  // namespace embsp::em
