// [MICRO] google-benchmark microbenchmarks of the EM substrate and the
// simulator building blocks: wall-clock cost of the pieces every
// experiment above is built from.
//
// A custom main() runs the google-benchmark suite, then takes a handful of
// deterministic counted measurements — payload bytes copied on the owning
// vs the arena/MessageRef message path, and backend calls (syscalls on
// FileBackend) with track coalescing off vs on — and writes them to
// BENCH_micro_substrate.json so the copy/syscall reductions are plottable
// without scraping benchmark output.
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>

#include "bench_util.hpp"
#include "em/disk_array.hpp"
#include "em/uring_backend.hpp"
#include "em/linked_buckets.hpp"
#include "em/striped_region.hpp"
#include "em/track_allocator.hpp"
#include "sim/context_store.hpp"
#include "sim/message_store.hpp"
#include "sim/routing.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace {

using namespace embsp;

void BM_StripedRegionWrite(benchmark::State& state) {
  const std::size_t D = static_cast<std::size_t>(state.range(0));
  em::DiskArray disks(D, 4096);
  em::TrackAllocators alloc(D);
  auto region = em::StripedRegion::reserve(disks, alloc, 1024);
  std::vector<std::byte> buf(64 * 4096, std::byte{1});
  for (auto _ : state) {
    region.write_blocks(0, 64, buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          64 * 4096);
}
BENCHMARK(BM_StripedRegionWrite)->Arg(1)->Arg(4)->Arg(16);

void BM_StripedRegionRead(benchmark::State& state) {
  const std::size_t D = static_cast<std::size_t>(state.range(0));
  em::DiskArray disks(D, 4096);
  em::TrackAllocators alloc(D);
  auto region = em::StripedRegion::reserve(disks, alloc, 1024);
  std::vector<std::byte> buf(64 * 4096, std::byte{1});
  region.write_blocks(0, 64, buf);
  for (auto _ : state) {
    region.read_blocks(0, 64, buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          64 * 4096);
}
BENCHMARK(BM_StripedRegionRead)->Arg(1)->Arg(4)->Arg(16);

void BM_LinkedBucketCycle(benchmark::State& state) {
  const std::size_t D = static_cast<std::size_t>(state.range(0));
  em::DiskArray disks(D, 4096);
  em::TrackAllocators alloc(D);
  em::LinkedBuckets buckets(disks, alloc, D);
  util::Rng rng(1);
  std::vector<std::byte> block(4096, std::byte{2});
  std::vector<em::LinkedBuckets::OutBlock> out;
  for (std::size_t d = 0; d < D; ++d) {
    out.push_back({static_cast<std::uint32_t>(d), block});
  }
  for (auto _ : state) {
    buckets.write_cycle(out, rng);
    for (std::size_t d = 0; d < D; ++d) {
      buckets.drain_bucket(d, [](std::span<const std::byte>) {});
    }
  }
}
BENCHMARK(BM_LinkedBucketCycle)->Arg(2)->Arg(8);

// Track I/O on file backends, serial vs worker-pool engine.  Backends open
// O_DSYNC so each transfer is genuine device I/O — the worker pool's
// overlap shows up as higher throughput at D >= 4 (claim_disk_scaling
// [C-D2] reports the same comparison as a pass/fail shape check).
void BM_FileTrackIo(benchmark::State& state, em::IoEngine engine) {
  const std::size_t D = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kB = 1 << 16;
  const auto dir = std::filesystem::temp_directory_path();
  auto arr = em::make_disk_array(engine, D, kB, [&](std::size_t d) {
    const auto path =
        dir / ("embsp_micro_io_" + std::to_string(d) + ".bin");
    return em::make_file_backend(path.string(), /*keep=*/false,
                                 /*sync_writes=*/true);
  });
  std::vector<std::byte> buf(D * kB, std::byte{9});
  std::uint64_t track = 0;
  for (auto _ : state) {
    std::vector<em::WriteOp> writes;
    std::vector<em::ReadOp> reads;
    for (std::uint32_t d = 0; d < D; ++d) {
      writes.push_back(
          {d, track % 64, std::span<const std::byte>(buf).subspan(d * kB, kB)});
      reads.push_back(
          {d, track % 64, std::span<std::byte>(buf).subspan(d * kB, kB)});
    }
    arr->parallel_write(writes);
    arr->parallel_read(reads);
    ++track;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(D * kB));
}
void BM_FileTrackIoSerial(benchmark::State& state) {
  BM_FileTrackIo(state, em::IoEngine::serial);
}
void BM_FileTrackIoParallel(benchmark::State& state) {
  BM_FileTrackIo(state, em::IoEngine::parallel);
}
BENCHMARK(BM_FileTrackIoSerial)->Arg(1)->Arg(4)->Arg(8);
BENCHMARK(BM_FileTrackIoParallel)->Arg(1)->Arg(4)->Arg(8);

// Same schedule on the kernel-native engine: each drive's worker drives an
// io_uring ring (SQE/CQE waves) instead of blocking p{read,write}.  Falls
// back to plain file backends when the kernel lacks io_uring, in which
// case these report worker-pool numbers.
void BM_FileTrackIoUringCfg(benchmark::State& state, bool direct) {
  const std::size_t D = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kB = 1 << 16;
  const auto dir = std::filesystem::temp_directory_path();
  em::UringConfig cfg;
  cfg.direct = direct;
  cfg.sync_writes = true;
  auto arr = em::make_disk_array(em::IoEngine::uring, D, kB, [&](std::size_t d) {
    const auto path =
        dir / ("embsp_micro_uio_" + std::to_string(d) + ".bin");
    return em::make_uring_file_backend(path.string(), /*keep=*/false, cfg);
  });
  std::vector<std::byte> buf(D * kB, std::byte{9});
  std::uint64_t track = 0;
  for (auto _ : state) {
    std::vector<em::WriteOp> writes;
    std::vector<em::ReadOp> reads;
    for (std::uint32_t d = 0; d < D; ++d) {
      writes.push_back(
          {d, track % 64, std::span<const std::byte>(buf).subspan(d * kB, kB)});
      reads.push_back(
          {d, track % 64, std::span<std::byte>(buf).subspan(d * kB, kB)});
    }
    arr->parallel_write(writes);
    arr->parallel_read(reads);
    ++track;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(D * kB));
}
void BM_FileTrackIoUring(benchmark::State& state) {
  BM_FileTrackIoUringCfg(state, /*direct=*/false);
}
void BM_FileTrackIoUringDirect(benchmark::State& state) {
  BM_FileTrackIoUringCfg(state, /*direct=*/true);
}
BENCHMARK(BM_FileTrackIoUring)->Arg(1)->Arg(4)->Arg(8);
BENCHMARK(BM_FileTrackIoUringDirect)->Arg(1)->Arg(4)->Arg(8);

/// Owning copies of the payload views a blocking read returns.
std::vector<std::vector<std::byte>> read_copies(sim::ContextStore& store,
                                                std::uint32_t first,
                                                std::uint32_t count) {
  std::vector<std::vector<std::byte>> out;
  for (const auto view : store.read(first, count)) {
    out.emplace_back(view.begin(), view.end());
  }
  return out;
}

void BM_ContextSwap(benchmark::State& state) {
  em::DiskArray disks(4, 1024);
  em::TrackAllocators alloc(4);
  sim::ContextStore store(disks, alloc, 64, 900);
  std::vector<std::vector<std::byte>> payloads(
      16, std::vector<std::byte>(900, std::byte{3}));
  store.write(0, payloads);
  for (auto _ : state) {
    auto got = read_copies(store, 0, 16);
    store.write(0, got);
    benchmark::DoNotOptimize(got);
  }
}
BENCHMARK(BM_ContextSwap);

void BM_PackBlocks(benchmark::State& state) {
  std::vector<bsp::Message> msgs(64);
  for (std::uint32_t i = 0; i < msgs.size(); ++i) {
    msgs[i].src = i;
    msgs[i].dst = i;
    msgs[i].seq = i;
    msgs[i].payload.resize(100 + i);
  }
  std::vector<const bsp::Message*> ptrs;
  for (const auto& m : msgs) ptrs.push_back(&m);
  for (auto _ : state) {
    std::size_t blocks = 0;
    sim::pack_blocks(ptrs, 0, 1024,
                     [&](std::span<const std::byte>) { ++blocks; });
    benchmark::DoNotOptimize(blocks);
  }
}
BENCHMARK(BM_PackBlocks);

void BM_Reassemble(benchmark::State& state) {
  std::vector<bsp::Message> msgs(64);
  for (std::uint32_t i = 0; i < msgs.size(); ++i) {
    msgs[i].src = i;
    msgs[i].dst = 0;
    msgs[i].seq = i;
    msgs[i].payload.resize(100 + i, std::byte{5});
  }
  std::vector<const bsp::Message*> ptrs;
  for (const auto& m : msgs) ptrs.push_back(&m);
  std::vector<std::vector<std::byte>> blocks;
  sim::pack_blocks(ptrs, 0, 1024, [&](std::span<const std::byte> b) {
    blocks.emplace_back(b.begin(), b.end());
  });
  for (auto _ : state) {
    sim::Reassembler r;
    for (const auto& b : blocks) r.absorb(b, 0);
    auto out = r.take();
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Reassemble);

void BM_MessageStoreRoundTrip(benchmark::State& state) {
  em::DiskArray disks(4, 1024);
  em::TrackAllocators alloc(4);
  sim::MessageStore store(disks, alloc,
                          sim::MessageStoreConfig{8, 64,
                                                  sim::RoutingMode::compact});
  util::Rng rng(7);
  std::vector<bsp::Message> msgs(32);
  for (std::uint32_t i = 0; i < msgs.size(); ++i) {
    msgs[i].src = i;
    msgs[i].dst = i % 16;
    msgs[i].seq = i;
    msgs[i].payload.resize(200, std::byte{6});
  }
  for (auto _ : state) {
    store.write_messages(msgs, [](std::uint32_t d) { return d / 2; }, rng);
    store.flush(rng);
    store.reorganize(rng);
    for (std::uint32_t g = 0; g < 8; ++g) {
      auto got = store.fetch_group(g);
      benchmark::DoNotOptimize(got);
    }
  }
}
BENCHMARK(BM_MessageStoreRoundTrip);

// --- Copy-path microbenchmarks ----------------------------------------------
//
// The same message set travels pack -> reassemble -> deliver on the two
// payload representations.  The owning path materializes a std::vector per
// message at both ends; the ref path bump-allocates from an arena and hands
// out spans.

std::vector<bsp::Message> make_copy_path_messages(std::size_t n,
                                                  std::size_t payload) {
  std::vector<bsp::Message> msgs(n);
  for (std::uint32_t i = 0; i < msgs.size(); ++i) {
    msgs[i].src = i % 16;
    msgs[i].dst = i % 32;
    msgs[i].seq = i;
    msgs[i].payload.assign(payload, std::byte{static_cast<unsigned char>(i)});
  }
  return msgs;
}

void BM_MessagePathOwned(benchmark::State& state) {
  const auto msgs = make_copy_path_messages(256, 512);
  std::vector<const bsp::Message*> ptrs;
  for (const auto& m : msgs) ptrs.push_back(&m);
  std::vector<std::vector<std::byte>> blocks;
  for (auto _ : state) {
    blocks.clear();
    sim::pack_blocks(ptrs, 0, 1024, [&](std::span<const std::byte> b) {
      blocks.emplace_back(b.begin(), b.end());
    });
    sim::Reassembler r;
    for (const auto& b : blocks) r.absorb(b, 0);
    auto out = r.take();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 256 *
                          512);
}
BENCHMARK(BM_MessagePathOwned);

void BM_MessagePathRefs(benchmark::State& state) {
  const auto msgs = make_copy_path_messages(256, 512);
  std::vector<bsp::MessageRef> refs;
  for (const auto& m : msgs) refs.push_back({m.src, m.dst, m.seq, m.payload});
  std::vector<std::vector<std::byte>> blocks;
  util::Arena arena;
  for (auto _ : state) {
    blocks.clear();
    arena.reset();
    sim::pack_blocks(std::span<const bsp::MessageRef>(refs), 0, 1024,
                     [&](std::span<const std::byte> b) {
                       blocks.emplace_back(b.begin(), b.end());
                     });
    sim::Reassembler r(/*max_message_bytes=*/0, &arena);
    for (const auto& b : blocks) r.absorb(b, 0);
    auto out = r.take_refs();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 256 *
                          512);
}
BENCHMARK(BM_MessagePathRefs);

// Batched file I/O with and without track coalescing: the same 64-track
// run per disk issued as one vectored pwritev/preadv versus per-track
// pwrite/pread.
void BM_FileBatchIo(benchmark::State& state, bool coalesce) {
  constexpr std::size_t kD = 4;
  constexpr std::size_t kTracks = 64;
  constexpr std::size_t kB = 4096;
  const auto dir = std::filesystem::temp_directory_path();
  em::DiskArrayOptions opts;
  opts.coalesce = coalesce;
  auto arr = em::make_disk_array(
      em::IoEngine::serial, kD, kB,
      [&](std::size_t d) {
        const auto path =
            dir / ("embsp_micro_coal_" + std::to_string(d) + ".bin");
        return em::make_file_backend(path.string(), /*keep=*/false);
      },
      0, opts);
  std::vector<std::byte> buf(kD * kTracks * kB, std::byte{7});
  for (auto _ : state) {
    std::vector<em::WriteOp> writes;
    std::vector<em::ReadOp> reads;
    for (std::uint32_t d = 0; d < kD; ++d) {
      for (std::uint64_t t = 0; t < kTracks; ++t) {
        const auto off = (d * kTracks + t) * kB;
        writes.push_back(
            {d, t, std::span<const std::byte>(buf).subspan(off, kB)});
        reads.push_back({d, t, std::span<std::byte>(buf).subspan(off, kB)});
      }
    }
    arr->parallel_write_batch(writes, kTracks);
    arr->parallel_read_batch(reads, kTracks);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(kD * kTracks * kB));
}
void BM_FileBatchIoScalar(benchmark::State& state) {
  BM_FileBatchIo(state, false);
}
void BM_FileBatchIoCoalesced(benchmark::State& state) {
  BM_FileBatchIo(state, true);
}
BENCHMARK(BM_FileBatchIoScalar);
BENCHMARK(BM_FileBatchIoCoalesced);

// --- BENCH_micro_substrate.json artifact -------------------------------------

/// Counts backend entry points: each read/write/read_vec/write_vec is one
/// call — on FileBackend each such call is one pread/pwrite/preadv/pwritev
/// syscall, so the counter is the syscall count of the transfer schedule.
class CountingBackend final : public em::Backend {
 public:
  CountingBackend(std::unique_ptr<em::Backend> inner, std::uint64_t* calls)
      : inner_(std::move(inner)), calls_(calls) {}
  void read(std::uint64_t offset, std::span<std::byte> dst) override {
    ++*calls_;
    inner_->read(offset, dst);
  }
  void write(std::uint64_t offset, std::span<const std::byte> src) override {
    ++*calls_;
    inner_->write(offset, src);
  }
  void read_vec(std::uint64_t offset,
                std::span<const std::span<std::byte>> dsts) override {
    ++*calls_;
    inner_->read_vec(offset, dsts);
  }
  void write_vec(std::uint64_t offset,
                 std::span<const std::span<const std::byte>> srcs) override {
    ++*calls_;
    inner_->write_vec(offset, srcs);
  }
  void flush() override { inner_->flush(); }
  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }

 private:
  std::unique_ptr<em::Backend> inner_;
  std::uint64_t* calls_;
};

double timed_ns(const std::function<void()>& fn, int reps) {
  fn();  // warm up (allocator, page cache)
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / reps;
}

void emit_artifact() {
  embsp::bench::JsonArtifact artifact("micro_substrate");

  // Copy path: payload bytes copied per superstep handoff, and wall clock.
  {
    const auto msgs = make_copy_path_messages(256, 512);
    std::vector<const bsp::Message*> ptrs;
    std::vector<bsp::MessageRef> refs;
    for (const auto& m : msgs) {
      ptrs.push_back(&m);
      refs.push_back({m.src, m.dst, m.seq, m.payload});
    }
    const double payload_bytes = 256.0 * 512.0;
    std::vector<std::vector<std::byte>> blocks;
    const double owned_ns = timed_ns(
        [&] {
          blocks.clear();
          sim::pack_blocks(ptrs, 0, 1024, [&](std::span<const std::byte> b) {
            blocks.emplace_back(b.begin(), b.end());
          });
          sim::Reassembler r;
          for (const auto& b : blocks) r.absorb(b, 0);
          auto out = r.take();
          benchmark::DoNotOptimize(out);
        },
        200);
    util::Arena arena;
    const double ref_ns = timed_ns(
        [&] {
          blocks.clear();
          arena.reset();
          sim::pack_blocks(std::span<const bsp::MessageRef>(refs), 0, 1024,
                           [&](std::span<const std::byte> b) {
                             blocks.emplace_back(b.begin(), b.end());
                           });
          sim::Reassembler r(0, &arena);
          for (const auto& b : blocks) r.absorb(b, 0);
          auto out = r.take_refs();
          benchmark::DoNotOptimize(out);
        },
        200);
    artifact.begin_case("copy_path");
    // take() copies every payload byte out of reassembly; take_refs() hands
    // out arena spans and copies none.
    artifact.metric("payload_bytes", payload_bytes);
    artifact.metric("bytes_copied_owned", payload_bytes);
    artifact.metric("bytes_copied_refs", 0.0);
    artifact.metric("owned_ns", owned_ns);
    artifact.metric("refs_ns", ref_ns);
    artifact.metric("speedup", owned_ns / ref_ns);
  }

  // Syscall count: the same batched 64-track-per-disk transfer schedule
  // with coalescing off (one backend call per track) vs on (one vectored
  // call per adjacent run).
  for (const bool coalesce : {false, true}) {
    constexpr std::size_t kD = 4;
    constexpr std::size_t kTracks = 64;
    constexpr std::size_t kB = 1024;
    std::uint64_t calls = 0;
    em::DiskArrayOptions opts;
    opts.coalesce = coalesce;
    auto arr = em::make_disk_array(
        em::IoEngine::serial, kD, kB,
        [&](std::size_t) {
          return std::make_unique<CountingBackend>(
              std::make_unique<em::MemoryBackend>(), &calls);
        },
        0, opts);
    std::vector<std::byte> buf(kD * kTracks * kB, std::byte{5});
    std::vector<em::WriteOp> writes;
    std::vector<em::ReadOp> reads;
    for (std::uint32_t d = 0; d < kD; ++d) {
      for (std::uint64_t t = 0; t < kTracks; ++t) {
        const auto off = (d * kTracks + t) * kB;
        writes.push_back(
            {d, t, std::span<const std::byte>(buf).subspan(off, kB)});
        reads.push_back({d, t, std::span<std::byte>(buf).subspan(off, kB)});
      }
    }
    arr->parallel_write_batch(writes, kTracks);
    arr->parallel_read_batch(reads, kTracks);
    std::uint64_t coalesced_tracks = 0;
    for (const auto& ds : arr->engine_stats().per_disk) {
      coalesced_tracks += ds.coalesced_tracks;
    }
    artifact.begin_case(coalesce ? "vectored_io_coalesced"
                                 : "vectored_io_scalar");
    artifact.metric("tracks_moved", 2.0 * kD * kTracks);
    artifact.metric("backend_calls", static_cast<double>(calls));
    artifact.metric("coalesced_tracks",
                    static_cast<double>(coalesced_tracks));
    artifact.metric("parallel_ios",
                    static_cast<double>(arr->stats().parallel_ios));
  }

  // I/O engine matrix: the same 64-track-per-disk batched schedule on the
  // worker-pool file engine and on the io_uring engine — buffered, with
  // O_DIRECT, and with registered (fixed) buffers.  `uring_rings == 0` in a
  // uring row means the kernel lacks io_uring and the run silently fell
  // back to worker-pool file I/O (the honest column, not a failure).
  {
    struct EngineCase {
      const char* name;
      bool uring;
      bool direct;
      bool registered;
    };
    const EngineCase engine_cases[] = {
        {"engine_worker_pool", false, false, false},
        {"engine_uring", true, false, false},
        {"engine_uring_direct", true, true, false},
        {"engine_uring_fixed", true, false, true},
    };
    constexpr std::size_t kD = 4;
    constexpr std::size_t kTracks = 64;
    constexpr std::size_t kB = 4096;
    const auto dir = std::filesystem::temp_directory_path();
    for (const auto& c : engine_cases) {
      std::vector<std::byte> buf(kD * kTracks * kB, std::byte{8});
      em::UringConfig ucfg;
      ucfg.direct = c.direct;
      auto arr = em::make_disk_array(
          c.uring ? em::IoEngine::uring : em::IoEngine::parallel, kD, kB,
          [&](std::size_t d) -> std::unique_ptr<em::Backend> {
            const auto path =
                dir / ("embsp_micro_eng_" + std::to_string(d) + ".bin");
            if (c.uring) {
              return em::make_uring_file_backend(path.string(),
                                                 /*keep=*/false, ucfg);
            }
            return em::make_file_backend(path.string(), /*keep=*/false);
          });
      if (c.registered) {
        const std::span<std::byte> region[] = {buf};
        (void)arr->register_io_buffers(region);
      }
      std::vector<em::WriteOp> writes;
      std::vector<em::ReadOp> reads;
      for (std::uint32_t d = 0; d < kD; ++d) {
        for (std::uint64_t t = 0; t < kTracks; ++t) {
          const auto off = (d * kTracks + t) * kB;
          writes.push_back(
              {d, t, std::span<const std::byte>(buf).subspan(off, kB)});
          reads.push_back({d, t, std::span<std::byte>(buf).subspan(off, kB)});
        }
      }
      const double ns = timed_ns(
          [&] {
            arr->parallel_write_batch(writes, kTracks);
            arr->parallel_read_batch(reads, kTracks);
          },
          20);
      if (c.registered) {
        (void)arr->register_io_buffers({});
      }
      arr->harvest_backend_stats();
      const auto& u = arr->engine_stats().uring;
      artifact.begin_case(c.name);
      artifact.metric("tracks_moved", 2.0 * kD * kTracks);
      artifact.metric("wall_ns", ns);
      artifact.metric("uring_rings", static_cast<double>(u.rings));
      artifact.metric("direct_rings", static_cast<double>(u.direct_rings));
      artifact.metric("sqes", static_cast<double>(u.sqes));
      artifact.metric("enters", static_cast<double>(u.enters));
      artifact.metric("fixed_ops", static_cast<double>(u.fixed_ops));
      artifact.metric("bounced_bytes", static_cast<double>(u.bounced_bytes));
    }
  }

  const auto path = artifact.write();
  if (!path.empty()) {
    std::cout << "artifact written to " << path << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_artifact();
  return 0;
}
