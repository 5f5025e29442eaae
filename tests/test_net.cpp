// Transport-tier tests: unit tests for the loopback and socket backends,
// the wire framing, the streaming checksum — and the cross-backend parity
// suite, which pins the determinism contract of the rank loop: same seed,
// same workload → byte-identical final states, SuperstepCosts, IoStats and
// fault histories on
//   ParSimulator (threaded ranks)  vs  loopback DistSimulator  vs  socket
//   DistSimulator (full wire protocol over unix-domain sockets),
// each held against a golden digest recorded from the threaded
// mailbox simulator the rank loop replaced.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <thread>

#include "net/frame.hpp"
#include "net/transport.hpp"
#include "obs/span.hpp"
#include "sim/dist_simulator.hpp"
#include "sim/par_simulator.hpp"
#include "sim_digest.hpp"
#include "test_programs.hpp"
#include "transport_helpers.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "util/serialization.hpp"

namespace embsp::sim {
namespace {

using embsp::testing::BigMessageProgram;
using embsp::testing::IrregularProgram;
using embsp::testing::PrefixSumProgram;
using embsp::testing::RingProgram;

std::vector<std::byte> bytes_of(std::string_view s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return {p, p + s.size()};
}

// --- ChecksumStream ---------------------------------------------------------

TEST(ChecksumStream, MatchesContiguousChecksumForAnyFragmentation) {
  util::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = rng.below(300);
    std::vector<std::byte> data(n);
    for (auto& b : data) b = static_cast<std::byte>(rng.below(256));
    const std::uint64_t want = util::checksum64(data);

    util::ChecksumStream cs(n);
    std::size_t off = 0;
    while (off < n) {
      const std::size_t len = std::min<std::size_t>(1 + rng.below(13), n - off);
      cs.update({data.data() + off, len});
      off += len;
    }
    EXPECT_EQ(cs.finish(), want) << "n=" << n;
  }
}

TEST(ChecksumStream, EmptyMatches) {
  util::ChecksumStream cs(0);
  EXPECT_EQ(cs.finish(), util::checksum64({}));
}

// --- Frame encoding ---------------------------------------------------------

TEST(Frame, HeaderRoundTrip) {
  net::FrameHeader h;
  h.kind = net::FrameKind::data;
  h.src = 3;
  h.len = 4096;
  h.checksum = 0xdeadbeefcafef00dULL;
  std::array<std::byte, net::kFrameHeaderBytes> buf;
  net::encode_frame_header(h, buf);
  const auto got = net::decode_frame_header(buf);
  EXPECT_EQ(got.kind, h.kind);
  EXPECT_EQ(got.src, h.src);
  EXPECT_EQ(got.len, h.len);
  EXPECT_EQ(got.checksum, h.checksum);
}

TEST(Frame, BadMagicIsCorrupt) {
  std::array<std::byte, net::kFrameHeaderBytes> buf{};
  EXPECT_THROW(net::decode_frame_header(buf), net::CorruptFrameError);
}

TEST(Frame, UnknownKindAndOversizedLengthAreCorrupt) {
  net::FrameHeader h;
  std::array<std::byte, net::kFrameHeaderBytes> buf;
  net::encode_frame_header(h, buf);
  buf[4] = static_cast<std::byte>(200);  // kind
  EXPECT_THROW(net::decode_frame_header(buf), net::CorruptFrameError);

  h.len = net::kMaxFramePayload + 1;
  net::encode_frame_header(h, buf);
  EXPECT_THROW(net::decode_frame_header(buf), net::CorruptFrameError);
}

TEST(Frame, NetErrorsClassifyOnTheIoTaxonomy) {
  EXPECT_EQ(net::PeerTimeoutError("x").kind(), em::IoError::Kind::transient);
  EXPECT_EQ(net::PeerFailedError("x").kind(), em::IoError::Kind::persistent);
  EXPECT_EQ(net::CorruptFrameError("x").kind(), em::IoError::Kind::corrupt);
}

// --- Transport behavior (parameterized over backends) -----------------------

void exercise_ordering(std::vector<std::unique_ptr<net::Transport>>& eps) {
  const auto p = static_cast<std::uint32_t>(eps.size());
  run_ranks(eps, [p](std::uint32_t me, net::Transport& tp) {
    ASSERT_EQ(tp.rank(), me);
    ASSERT_EQ(tp.size(), p);
    // Phase 1: rank r sends "r->q #i" to every q (self included), i = 0,1.
    // Posted storage must stay alive until exchange() returns (the socket
    // backend serializes fragments straight from it).
    std::vector<std::vector<std::byte>> sent;
    for (std::uint32_t q = 0; q < p; ++q) {
      for (int i = 0; i < 2; ++i) {
        sent.push_back(bytes_of(std::to_string(me) + "->" + std::to_string(q) +
                                " #" + std::to_string(i)));
        tp.post(q, std::span<const std::byte>(sent.back()));
      }
    }
    auto got = tp.exchange();
    ASSERT_EQ(got.size(), p);
    for (std::uint32_t src = 0; src < p; ++src) {
      ASSERT_EQ(got[src].size(), 2u) << "src " << src;
      for (int i = 0; i < 2; ++i) {
        const std::string want = std::to_string(src) + "->" +
                                 std::to_string(me) + " #" + std::to_string(i);
        EXPECT_EQ(got[src][i], bytes_of(want));
      }
    }
    // Phase 2: empty phase — barrier only.
    got = tp.exchange();
    for (std::uint32_t src = 0; src < p; ++src) {
      EXPECT_TRUE(got[src].empty());
    }
    // Phase 3: gathered fragments arrive concatenated.
    const auto a = bytes_of("frag-a|"), b = bytes_of("frag-b");
    const std::span<const std::byte> frags[2] = {a, b};
    tp.post((me + 1) % p, frags);
    got = tp.exchange();
    EXPECT_EQ(got[(me + p - 1) % p].at(0), bytes_of("frag-a|frag-b"));
  });
}

TEST(LoopbackTransport, OrderingBarrierAndFragments) {
  auto eps = net::make_loopback_group(3);
  exercise_ordering(eps);
}

TEST(SocketTransport, OrderingBarrierAndFragments) {
  auto eps = make_socket_group(3, "order");
  exercise_ordering(eps);
}

TEST(SocketTransport, LargePayloadsInterleaveWithoutDeadlock) {
  // All-to-all h-relation far beyond the kernel socket buffers: a transport
  // that sends before reading would deadlock here.
  auto eps = make_socket_group(2, "big");
  run_ranks(eps, [](std::uint32_t me, net::Transport& tp) {
    util::Rng rng(me + 1);
    std::vector<std::byte> big(8u << 20);
    for (auto& b : big) b = static_cast<std::byte>(rng.below(256));
    tp.post(1 - me, std::span<const std::byte>(big));
    auto got = tp.exchange();
    ASSERT_EQ(got[1 - me].size(), 1u);
    util::Rng peer(2 - me);
    const auto& blob = got[1 - me][0];
    ASSERT_EQ(blob.size(), big.size());
    bool ok = true;
    for (const auto& b : blob) {
      ok = ok && b == static_cast<std::byte>(peer.below(256));
    }
    EXPECT_TRUE(ok) << "payload corrupted in flight";
  });
}

TEST(LoopbackTransport, AbortSurfacesAsPeerFailure) {
  auto eps = net::make_loopback_group(2);
  run_ranks(eps, [](std::uint32_t me, net::Transport& tp) {
    if (me == 1) {
      tp.abort("deliberate test failure");
      return;
    }
    EXPECT_THROW(tp.exchange(), net::PeerFailedError);
  });
}

TEST(SocketTransport, AbortSurfacesAsPeerFailure) {
  auto eps = make_socket_group(2, "abort");
  run_ranks(eps, [](std::uint32_t me, net::Transport& tp) {
    if (me == 1) {
      tp.abort("deliberate test failure");
      return;
    }
    try {
      tp.exchange();
      FAIL() << "exchange should have observed the abort";
    } catch (const net::NetError& e) {
      // Abort frame → PeerFailedError carrying the reason; if the peer's
      // close races ahead of the frame, the disconnect is still a typed
      // peer failure, never a hang.
      EXPECT_EQ(e.kind(), em::IoError::Kind::persistent);
    }
  });
}

TEST(LoopbackTransport, MissingPeerTimesOut) {
  auto eps = net::make_loopback_group(2, /*timeout_ms=*/150);
  // Rank 1 never calls exchange().
  EXPECT_THROW(eps[0]->exchange(), net::PeerTimeoutError);
}

TEST(SocketTransport, MissingPeerEndTimesOut) {
  std::vector<std::unique_ptr<net::Transport>> eps(2);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      net::SocketConfig cfg;
      cfg.address = unix_prefix("timeout");
      cfg.rank = r;
      cfg.peers = 2;
      cfg.io_timeout_ms = 200;
      eps[r] = net::make_socket_transport(cfg);
    });
  }
  for (auto& t : threads) t.join();
  // Rank 1 stays silent: rank 0's exchange must name it and give up.
  try {
    eps[0]->exchange();
    FAIL() << "exchange should have timed out";
  } catch (const net::PeerTimeoutError& e) {
    EXPECT_NE(std::string(e.what()).find("rank(s) 1"), std::string::npos)
        << e.what();
  }
}

TEST(SocketTransport, SlowSuperstepBetweenPostAndExchangeDoesNotTimeOut) {
  // Regression for the deadline clock: it must start at exchange(),
  // never at post().  Each rank posts, then "computes" for several multiples
  // of io_timeout_ms while pumping progress() (which is deadline-free and
  // must never throw PeerTimeoutError), and only then exchanges.
  std::vector<std::unique_ptr<net::Transport>> eps(2);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      net::SocketConfig cfg;
      cfg.address = unix_prefix("slow");
      cfg.rank = r;
      cfg.peers = 2;
      cfg.io_timeout_ms = 200;
      eps[r] = net::make_socket_transport(cfg);
    });
  }
  for (auto& t : threads) t.join();
  run_ranks(eps, [](std::uint32_t me, net::Transport& tp) {
    std::vector<std::byte> payload(64u << 10, std::byte{0x5A});
    tp.post(1 - me, std::span<const std::byte>(payload));
    // 3x the timeout elapses between post() and the barrier.
    for (int slice = 0; slice < 12; ++slice) {
      tp.progress();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    auto got = tp.exchange();
    ASSERT_EQ(got[1 - me].size(), 1u);
    EXPECT_EQ(got[1 - me][0], payload);
  });
  // The payload fits in the kernel socket buffer, so the progress() pump
  // drained it during the sleep loop: most wire bytes moved outside
  // exchange(), and the in-flight gauge saw the posted frame.
  obs::Recorder rec;
  eps[0]->export_metrics(rec.registry);
  EXPECT_GT(rec.registry.gauge("net.exchange_overlap_ratio"), 0.0);
  EXPECT_LE(rec.registry.gauge("net.exchange_overlap_ratio"), 1.0);
  EXPECT_GT(rec.registry.gauge("net.link.1.max_inflight_bytes"), 0.0);
}

// --- Cross-backend parity ----------------------------------------------------

SimConfig dist_config(std::uint32_t p, std::uint32_t v, std::size_t D,
                      std::size_t B, std::size_t mu, std::size_t gamma) {
  SimConfig cfg;
  cfg.machine.p = p;
  cfg.machine.bsp.v = v;
  cfg.machine.em.D = D;
  cfg.machine.em.B = B;
  cfg.machine.em.M = std::max<std::size_t>(D * B, 8 * (mu + B));
  cfg.mu = mu;
  cfg.gamma = gamma;
  return cfg;
}

/// Turns a config into its overlapped variant: double-buffered per-rank
/// group schedule + incremental wire draining.  Paired with the parallel
/// engine and a 2-wide compute pool so the overlap paths actually run.
SimConfig pipelined(SimConfig cfg) {
  cfg.pipeline = true;
  cfg.io_engine = em::IoEngine::parallel;
  cfg.compute_threads = 2;
  return cfg;
}

template <typename T>
std::vector<std::byte> raw_bytes(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::byte> out(sizeof(T));
  std::memcpy(out.data(), &value, sizeof(T));
  return out;
}

struct DistRun {
  std::vector<SimResult> results;                 ///< one per rank
  std::vector<std::vector<std::byte>> states;     ///< rank 0's collected view
};

template <bsp::Program P>
DistRun run_dist(
    const P& prog, SimConfig cfg,
    std::vector<std::unique_ptr<net::Transport>> eps,
    const std::function<typename P::State(std::uint32_t)>& make_state) {
  using State = typename P::State;
  const auto p = static_cast<std::uint32_t>(eps.size());
  const std::uint32_t v = cfg.machine.bsp.v;
  DistRun out;
  out.results.resize(p);
  // Every rank collects all v outputs; ranks must agree, so keep each
  // rank's view and compare below.
  std::vector<std::vector<std::vector<std::byte>>> views(
      p, std::vector<std::vector<std::byte>>(v));
  run_ranks(eps, [&](std::uint32_t me, net::Transport& tp) {
    DistSimulator sim(cfg, tp);
    out.results[me] =
        sim.run<P>(prog, make_state, [&](std::uint32_t pid, State& s) {
          util::Writer w;
          s.serialize(w);
          views[me][pid] = w.take();
        });
  });
  for (std::uint32_t r = 1; r < p; ++r) {
    EXPECT_EQ(views[r], views[0]) << "rank " << r << " collected a different "
                                  << "view of the final states";
    EXPECT_EQ(raw_bytes(out.results[r].total_io),
              raw_bytes(out.results[0].total_io));
  }
  out.states = std::move(views[0]);
  return out;
}

void expect_same_costs(const bsp::RunCosts& a, const bsp::RunCosts& b) {
  ASSERT_EQ(a.supersteps.size(), b.supersteps.size());
  for (std::size_t i = 0; i < a.supersteps.size(); ++i) {
    EXPECT_EQ(raw_bytes(a.supersteps[i]), raw_bytes(b.supersteps[i]))
        << "superstep " << i;
  }
}

void expect_same_result(const SimResult& par, const SimResult& dist) {
  expect_same_costs(par.costs, dist.costs);
  EXPECT_EQ(raw_bytes(par.total_io), raw_bytes(dist.total_io));
  ASSERT_EQ(par.per_proc_io.size(), dist.per_proc_io.size());
  for (std::size_t i = 0; i < par.per_proc_io.size(); ++i) {
    EXPECT_EQ(raw_bytes(par.per_proc_io[i]), raw_bytes(dist.per_proc_io[i]))
        << "processor " << i;
  }
  EXPECT_EQ(raw_bytes(par.phase_io), raw_bytes(dist.phase_io));
  EXPECT_EQ(raw_bytes(par.routing_stats), raw_bytes(dist.routing_stats));
  EXPECT_EQ(par.group_size, dist.group_size);
  EXPECT_EQ(par.max_tracks_per_disk, dist.max_tracks_per_disk);
  EXPECT_EQ(par.real_comm_bytes, dist.real_comm_bytes);
  EXPECT_EQ(raw_bytes(par.recovery.faults), raw_bytes(dist.recovery.faults));
  EXPECT_EQ(par.recovery.io_retries, dist.recovery.io_retries);
  EXPECT_EQ(par.recovery.io_giveups, dist.recovery.io_giveups);
}

/// The parity assertion: ParSimulator, DistSimulator over loopback, and
/// DistSimulator over real sockets produce byte-identical everything, and
/// that everything digests to `golden` (recorded from the threaded mailbox
/// simulator that predates the rank loop, an independent reference).
template <bsp::Program P>
void expect_golden_parity(
    const P& prog, SimConfig cfg,
    const std::function<typename P::State(std::uint32_t)>& make_state,
    const std::string& tag, std::uint64_t golden) {
  using State = typename P::State;
  const std::uint32_t v = cfg.machine.bsp.v;
  const std::uint32_t p = cfg.machine.p;

  std::vector<std::vector<std::byte>> par_states(v);
  ParSimulator par(cfg);
  auto par_result =
      par.run<P>(prog, make_state, [&](std::uint32_t pid, State& s) {
        util::Writer w;
        s.serialize(w);
        par_states[pid] = w.take();
      });
  EXPECT_EQ(embsp::testing::run_digest(par_result, par_states), golden)
      << tag << ": ParSimulator left the golden digest";

  auto loop = run_dist(prog, cfg, net::make_loopback_group(p), make_state);
  EXPECT_EQ(loop.states, par_states) << "loopback states diverged";
  for (std::uint32_t r = 0; r < p; ++r) {
    expect_same_result(par_result, loop.results[r]);
    EXPECT_EQ(embsp::testing::run_digest(loop.results[r], loop.states), golden)
        << tag << ": loopback rank " << r;
  }

  auto sock = run_dist(prog, cfg, make_socket_group(p, tag), make_state);
  EXPECT_EQ(sock.states, par_states) << "socket states diverged";
  for (std::uint32_t r = 0; r < p; ++r) {
    expect_same_result(par_result, sock.results[r]);
    EXPECT_EQ(embsp::testing::run_digest(sock.results[r], sock.states), golden)
        << tag << ": socket rank " << r;
  }
}

TEST(DistParity, PrefixSumFourRanks) {
  PrefixSumProgram prog;
  expect_golden_parity(prog, dist_config(4, 32, 2, 128, 64, 1400),
                          [](std::uint32_t pid) {
                            PrefixSumProgram::State s;
                            s.value = pid * 5 + 2;
                            return s;
                          },
                          "prefix", 0xfd0f32ae6e9ed37bULL);
}

TEST(DistParity, RingAcrossRanks) {
  RingProgram prog;
  prog.rounds = 6;
  expect_golden_parity(prog, dist_config(4, 8, 2, 128, 2048, 4096),
                          [](std::uint32_t pid) {
                            RingProgram::State s;
                            s.data = {pid};
                            return s;
                          },
                          "ring", 0x0fa104661a0e0f0dULL);
}

TEST(DistParity, IrregularTraffic) {
  IrregularProgram prog;
  expect_golden_parity(
      prog, dist_config(3, 12, 2, 128, 64, 4096),
      [](std::uint32_t) { return IrregularProgram::State{}; }, "irregular",
      0xca60504631b06892ULL);
}

TEST(DistParity, BigMessagesTwoRanks) {
  BigMessageProgram prog;
  prog.words = 1500;
  expect_golden_parity(
      prog, dist_config(2, 4, 2, 128, 64, 14000),
      [](std::uint32_t) { return BigMessageProgram::State{}; }, "bigmsg",
      0x4d67a9f81cb5e138ULL);
}

TEST(DistParity, DeterministicRouting) {
  IrregularProgram prog;
  auto cfg = dist_config(4, 16, 2, 128, 64, 4096);
  cfg.routing = RoutingMode::deterministic;
  expect_golden_parity(
      prog, cfg, [](std::uint32_t) { return IrregularProgram::State{}; },
      "rr", 0xde7c7ee9f769a97dULL);
}

TEST(DistParity, AutomaticRouting) {
  IrregularProgram prog;
  auto cfg = dist_config(2, 8, 2, 128, 64, 4096);
  cfg.routing = RoutingMode::automatic;
  expect_golden_parity(
      prog, cfg, [](std::uint32_t) { return IrregularProgram::State{}; },
      "auto", 0x52543a0a5c2b8689ULL);
}

TEST(DistParity, FaultScheduleMatchesUnderInjection) {
  // Transient-only injection, absorbed by per-transfer retry: the byte
  // identity extends to the fault history — both simulators key the
  // deterministic schedule by machine-wide drive index and call index, so
  // the same calls draw the same faults.
  IrregularProgram prog;
  auto cfg = dist_config(2, 8, 2, 128, 64, 4096);
  cfg.faults.seed = cfg.seed;
  cfg.faults.read_error_rate = 0.05;
  cfg.faults.write_error_rate = 0.05;
  cfg.block_checksums = true;
  expect_golden_parity(
      prog, cfg, [](std::uint32_t) { return IrregularProgram::State{}; },
      "faults", 0x652c845b8ec00656ULL);
}

TEST(DistParity, PipelinedPrefixSum) {
  // The overlapped schedule (ctx prefetch + write-behind + progress()-pumped
  // wire) changes only timing, never content: the three-way byte identity
  // must hold with pipelining on.  ParSimulator runs its own pipelined
  // worker schedule under the same config, so the layouts match too.
  PrefixSumProgram prog;
  expect_golden_parity(prog,
                          pipelined(dist_config(4, 32, 2, 128, 64, 1400)),
                          [](std::uint32_t pid) {
                            PrefixSumProgram::State s;
                            s.value = pid * 5 + 2;
                            return s;
                          },
                          "pipeprefix", 0xfd0f32ae6e9ed37bULL);
}

TEST(DistParity, PipelinedIrregularTraffic) {
  IrregularProgram prog;
  expect_golden_parity(
      prog, pipelined(dist_config(3, 12, 2, 128, 64, 4096)),
      [](std::uint32_t) { return IrregularProgram::State{}; }, "pipeirr",
      0xca60504631b06892ULL);
}

TEST(DistParity, PipelinedMatchesBlockingSchedule) {
  // Direct blocking-vs-overlapped comparison on the SAME engine: identical
  // final states, costs, IoStats and phase attribution.  (Both runs use the
  // parallel engine so the only varied knob is the schedule itself.)
  IrregularProgram prog;
  auto cfg = dist_config(3, 12, 2, 128, 64, 4096);
  cfg.io_engine = em::IoEngine::parallel;
  auto make = [](std::uint32_t) { return IrregularProgram::State{}; };
  auto plain = run_dist(prog, cfg, net::make_loopback_group(3), make);
  auto piped = run_dist(prog, pipelined(cfg), net::make_loopback_group(3),
                        make);
  EXPECT_EQ(piped.states, plain.states) << "pipelined states diverged";
  for (std::uint32_t r = 0; r < 3; ++r) {
    expect_same_result(plain.results[r], piped.results[r]);
  }
}

TEST(DistParity, PipelinedFaultScheduleMatchesUnderInjection) {
  // The overlapped schedule keeps the blocking schedule's submission order
  // exactly, so the per-drive fault schedule — keyed by submission index —
  // stays aligned across all three backends and matches the golden digest.
  IrregularProgram prog;
  auto cfg = pipelined(dist_config(2, 8, 2, 128, 64, 4096));
  cfg.faults.seed = cfg.seed;
  cfg.faults.read_error_rate = 0.05;
  cfg.faults.write_error_rate = 0.05;
  cfg.block_checksums = true;
  expect_golden_parity(
      prog, cfg, [](std::uint32_t) { return IrregularProgram::State{}; },
      "pipefaults", 0x80863e283905b6b5ULL);
}

TEST(DistSimulatorConfig, RejectsSharedMemoryOnlyFeatures) {
  auto eps = net::make_loopback_group(2);
  auto cfg = dist_config(2, 8, 2, 128, 64, 1024);
  {
    // No feature is shared-memory-only anymore: checkpointing, coordinated
    // recovery and pipelining all live in the rank loop.  What is still
    // rejected up front is a machine the transport cannot carry.
    auto good = pipelined(cfg);
    good.checkpoint.dir = "/tmp/embsp_unused_ckpt";
    good.superstep_recovery = true;
    EXPECT_NO_THROW(DistSimulator(good, *eps[0]));
  }
  {
    auto bad = cfg;
    bad.machine.p = 4;  // transport is only 2 wide
    bad.machine.bsp.v = 16;
    EXPECT_THROW(DistSimulator(bad, *eps[0]), std::invalid_argument);
  }
}

TEST(DistSimulator, ExportsTransportMetrics) {
  PrefixSumProgram prog;
  auto cfg = dist_config(2, 8, 2, 128, 64, 1024);
  obs::Recorder recorder;
  auto eps = net::make_loopback_group(2);
  std::vector<std::exception_ptr> errors(2);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      try {
        auto local = cfg;
        if (r == 0) local.recorder = &recorder;
        DistSimulator sim(local, *eps[r]);
        sim.run<PrefixSumProgram>(
            prog,
            [](std::uint32_t pid) {
              PrefixSumProgram::State s;
              s.value = pid;
              return s;
            },
            [](std::uint32_t, PrefixSumProgram::State&) {});
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  auto& reg = recorder.registry;
  EXPECT_GT(reg.counter("net.exchanges"), 0u);
  EXPECT_GT(reg.counter("net.link.1.bytes_sent"), 0u);
  EXPECT_GT(reg.counter("net.link.1.frames_sent"), 0u);
  EXPECT_GT(reg.histogram("net.link.1.send_bytes").count(), 0u);
  EXPECT_GT(reg.histogram("net.exchange_wait_ns").count(), 0u);
}

TEST(DistSimulator, ExportsOverlapMetricsUnderPipeline) {
  // Per-link in-flight gauges and the send-side overlap ratio land in the
  // Registry alongside the existing counters.  On loopback post() IS the
  // transmission, so every wire byte drains before the barrier: ratio 1.0.
  PrefixSumProgram prog;
  auto cfg = pipelined(dist_config(2, 8, 2, 128, 64, 1024));
  obs::Recorder recorder;
  auto eps = net::make_loopback_group(2);
  std::vector<std::exception_ptr> errors(2);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      try {
        auto local = cfg;
        if (r == 0) local.recorder = &recorder;
        DistSimulator sim(local, *eps[r]);
        sim.run<PrefixSumProgram>(
            prog,
            [](std::uint32_t pid) {
              PrefixSumProgram::State s;
              s.value = pid;
              return s;
            },
            [](std::uint32_t, PrefixSumProgram::State&) {});
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  auto& reg = recorder.registry;
  EXPECT_GT(reg.counter("net.exchanges"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("net.exchange_overlap_ratio"), 1.0);
  EXPECT_GT(reg.gauge("net.link.1.max_inflight_bytes"), 0.0);
  EXPECT_GT(reg.histogram("net.link.1.send_bytes").count(), 0u);
  EXPECT_GT(reg.histogram("net.exchange_wait_ns").count(), 0u);
}

}  // namespace
}  // namespace embsp::sim
