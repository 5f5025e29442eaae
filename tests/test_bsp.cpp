#include <gtest/gtest.h>

#include <cstring>

#include "bsp/cost_model.hpp"
#include "bsp/direct_runtime.hpp"
#include "bsp/message.hpp"
#include "bsp/params.hpp"
#include "test_programs.hpp"

namespace embsp::bsp {
namespace {

using embsp::testing::IrregularProgram;
using embsp::testing::PrefixSumProgram;
using embsp::testing::RingProgram;

TEST(Params, ValidationCatchesBadMemory) {
  MachineParams m;
  m.p = 1;
  m.bsp.v = 4;
  m.em.M = 100;
  m.em.D = 4;
  m.em.B = 64;  // M < D*B
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(Params, ValidationRequiresDivisibility) {
  MachineParams m;
  m.p = 3;
  m.bsp.v = 10;  // not a multiple of 3
  m.em.M = 1 << 20;
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(Params, DefaultGroupSize) {
  EXPECT_EQ(default_group_size(1024, 100), 10u);
  EXPECT_EQ(default_group_size(50, 100), 1u);   // at least 1
  EXPECT_EQ(default_group_size(1024, 0), 1u);
}

TEST(Params, MinVirtualProcessorsScalesWithDisks) {
  MachineParams m;
  m.p = 2;
  m.bsp.v = 2;
  m.em.M = 1 << 20;
  m.em.B = 1 << 10;
  m.em.D = 1;
  const auto v1 = min_virtual_processors(m, 1);
  m.em.D = 4;
  const auto v4 = min_virtual_processors(m, 1);
  EXPECT_EQ(v4, 4 * v1);
}

TEST(CostModel, PacketsForRoundsUp) {
  EXPECT_EQ(packets_for(0, 64), 1u);   // empty messages still cost a packet
  EXPECT_EQ(packets_for(1, 64), 1u);
  EXPECT_EQ(packets_for(64, 64), 1u);
  EXPECT_EQ(packets_for(65, 64), 2u);
}

TEST(CostModel, CommunicationTimeUsesMaxAndL) {
  RunCosts costs;
  SuperstepCost s;
  s.max_packets_sent = 10;
  s.max_packets_received = 5;
  costs.supersteps.push_back(s);
  BspParams p;
  p.g = 2.0;
  p.L = 100.0;  // L dominates
  EXPECT_DOUBLE_EQ(costs.communication_time(p), 100.0);
  p.L = 1.0;
  EXPECT_DOUBLE_EQ(costs.communication_time(p), 30.0);
}

TEST(Message, OutboxRejectsBadDestination) {
  Outbox out(0, 4);
  EXPECT_THROW(out.send_value<int>(4, 1), std::out_of_range);
}

TEST(Message, InboxSortsBySrcThenSeq) {
  std::vector<Message> msgs;
  msgs.push_back({2, 0, 0, {}});
  msgs.push_back({1, 0, 1, {}});
  msgs.push_back({1, 0, 0, {}});
  Inbox in(std::move(msgs));
  EXPECT_EQ(in.all()[0].src, 1u);
  EXPECT_EQ(in.all()[0].seq, 0u);
  EXPECT_EQ(in.all()[1].src, 1u);
  EXPECT_EQ(in.all()[1].seq, 1u);
  EXPECT_EQ(in.all()[2].src, 2u);
}

TEST(Message, TypedRoundTrip) {
  Outbox out(3, 8);
  out.send_value<double>(1, 2.5);
  out.send_vector<std::uint32_t>(1, {7, 8, 9});
  auto msgs = out.take();
  Inbox in(std::move(msgs));
  EXPECT_DOUBLE_EQ(in.value<double>(0), 2.5);
  EXPECT_EQ(in.vector<std::uint32_t>(1), (std::vector<std::uint32_t>{7, 8, 9}));
}

TEST(Message, SpanSendAndAppendVector) {
  Outbox out(3, 8);
  const std::vector<std::uint32_t> src{1, 2, 3, 4, 5};
  out.send_vector(1, std::span<const std::uint32_t>(src).subspan(1, 3));
  out.send_vector(1, std::vector<std::uint32_t>{});
  Inbox in(out.take());
  EXPECT_EQ(in.vector<std::uint32_t>(0), (std::vector<std::uint32_t>{2, 3, 4}));
  std::vector<std::uint32_t> got{9};
  in.append_vector(0, got);
  in.append_vector(1, got);
  EXPECT_EQ(got, (std::vector<std::uint32_t>{9, 2, 3, 4}));

  // A length prefix that runs past the payload throws; its byte count
  // (2^62 * 4) wraps to 0, so only an element-count check catches it.
  std::vector<std::byte> bad(sizeof(std::uint64_t) + 4);
  const std::uint64_t n = std::uint64_t{1} << 62;
  std::memcpy(bad.data(), &n, sizeof(n));
  std::vector<Message> msgs;
  msgs.push_back({0, 0, 0, bad});
  Inbox truncated(std::move(msgs));
  EXPECT_THROW(truncated.append_vector(0, got), std::out_of_range);
  EXPECT_EQ(got.size(), 4u);
}

TEST(DirectRuntime, PrefixSumCorrect) {
  PrefixSumProgram prog;
  DirectRuntime rt;
  constexpr std::uint32_t v = 16;
  std::vector<std::uint64_t> prefixes(v);
  auto result = rt.run<PrefixSumProgram>(
      prog, v,
      [](std::uint32_t pid) {
        PrefixSumProgram::State s;
        s.value = pid + 1;
        return s;
      },
      [&](std::uint32_t pid, PrefixSumProgram::State& s) {
        prefixes[pid] = s.prefix;
      });
  for (std::uint32_t i = 0; i < v; ++i) {
    EXPECT_EQ(prefixes[i], static_cast<std::uint64_t>(i) * (i + 1) / 2);
  }
  EXPECT_EQ(result.lambda(), 2u);
}

TEST(DirectRuntime, MeasuresContextAndGamma) {
  RingProgram prog;
  prog.rounds = 3;
  auto req = measure_requirements<RingProgram>(
      prog, 4, [](std::uint32_t) { return RingProgram::State{}; });
  EXPECT_EQ(req.lambda, 4u);  // rounds + final receive
  EXPECT_GT(req.mu, 0u);
  EXPECT_GT(req.gamma, 0u);
}

TEST(DirectRuntime, IrregularTrafficRuns) {
  IrregularProgram prog;
  DirectRuntime rt;
  std::uint64_t total = 0;
  rt.run<IrregularProgram>(
      prog, 12, [](std::uint32_t) { return IrregularProgram::State{}; },
      [&](std::uint32_t, IrregularProgram::State& s) { total += s.checksum; });
  EXPECT_NE(total, 0u);
}

// A program that sends a message in its final superstep — a bug the
// runtime must diagnose.
struct DanglingSendProgram {
  struct State {
    void serialize(util::Writer&) const {}
    void deserialize(util::Reader&) {}
  };
  bool superstep(std::size_t, const bsp::ProcEnv& env, State&,
                 const bsp::Inbox&, bsp::Outbox& out) const {
    out.send_value<int>((env.pid + 1) % env.nprocs, 1);
    return false;
  }
};

TEST(DirectRuntime, DanglingSendDetected) {
  DanglingSendProgram prog;
  DirectRuntime rt;
  EXPECT_THROW(rt.run<DanglingSendProgram>(
                   prog, 4,
                   [](std::uint32_t) { return DanglingSendProgram::State{}; },
                   [](std::uint32_t, DanglingSendProgram::State&) {}),
               std::runtime_error);
}

// A program that never terminates must hit the superstep guard.
struct ForeverProgram {
  struct State {
    void serialize(util::Writer&) const {}
    void deserialize(util::Reader&) {}
  };
  bool superstep(std::size_t, const bsp::ProcEnv&, State&, const bsp::Inbox&,
                 bsp::Outbox&) const {
    return true;
  }
};

TEST(DirectRuntime, RunawayProgramGuard) {
  ForeverProgram prog;
  DirectRuntime rt;
  DirectRuntime::Options opt;
  opt.max_supersteps = 10;
  EXPECT_THROW(
      rt.run<ForeverProgram>(
          prog, 2, [](std::uint32_t) { return ForeverProgram::State{}; },
          [](std::uint32_t, ForeverProgram::State&) {}, opt),
      std::runtime_error);
}

TEST(DirectRuntime, CostAccountingCountsCommunication) {
  PrefixSumProgram prog;
  DirectRuntime rt;
  auto result = rt.run<PrefixSumProgram>(
      prog, 8,
      [](std::uint32_t pid) {
        PrefixSumProgram::State s;
        s.value = pid;
        return s;
      },
      [](std::uint32_t, PrefixSumProgram::State&) {});
  // Superstep 0: processor 0 sends 7 messages of 8 bytes.
  EXPECT_EQ(result.costs.supersteps[0].max_bytes_sent, 7u * 8u);
  // Superstep 1: processor 7 receives 7 messages.
  EXPECT_EQ(result.costs.supersteps[1].max_bytes_received, 7u * 8u);
  // gamma is metered in wire bytes: payload + fixed per-message overhead.
  EXPECT_EQ(result.gamma(), 7u * (8u + kWireOverheadPerMessage));
}

TEST(CostModel, PacketCountDropsWithPacketSize) {
  // Observation 1 flavor: the same message volume costs fewer BSP* packets
  // as b grows, until each message fits one packet.
  RunCosts costs;
  SuperstepCost s;
  s.max_packets_sent = 0;
  costs.supersteps.push_back(s);
  const std::uint64_t msg = 1000;
  EXPECT_EQ(packets_for(msg, 1), 1000u);
  EXPECT_EQ(packets_for(msg, 64), 16u);
  EXPECT_EQ(packets_for(msg, 1024), 1u);
  EXPECT_EQ(packets_for(msg, 4096), 1u);  // floor at one packet
}

TEST(Message, SelfSendDelivered) {
  struct SelfProgram {
    struct State {
      std::uint64_t got = 0;
      void serialize(util::Writer& w) const { w.write(got); }
      void deserialize(util::Reader& r) { got = r.read<std::uint64_t>(); }
    };
    bool superstep(std::size_t step, const ProcEnv& env, State& s,
                   const Inbox& in, Outbox& out) const {
      if (step == 0) {
        out.send_value<std::uint64_t>(env.pid, env.pid * 7 + 1);
        return true;
      }
      s.got = in.value<std::uint64_t>(0);
      return false;
    }
  };
  SelfProgram prog;
  DirectRuntime rt;
  rt.run<SelfProgram>(
      prog, 5, [](std::uint32_t) { return SelfProgram::State{}; },
      [](std::uint32_t pid, SelfProgram::State& s) {
        EXPECT_EQ(s.got, pid * 7 + 1);
      });
}

TEST(Message, InboxPreservesSendOrderPerSource) {
  std::vector<Message> msgs;
  // Source 3 sent seq 0,1,2 — deliver shuffled.
  msgs.push_back({3, 0, 2, {std::byte{2}}});
  msgs.push_back({3, 0, 0, {std::byte{0}}});
  msgs.push_back({3, 0, 1, {std::byte{1}}});
  Inbox in(std::move(msgs));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(in.all()[i].payload[0], static_cast<std::byte>(i));
  }
}

TEST(WorkMeterTest, AccumulatesAndResets) {
  WorkMeter m;
  m.charge(10);
  m.charge(5);
  EXPECT_EQ(m.total(), 15u);
  m.reset();
  EXPECT_EQ(m.total(), 0u);
  ProcEnv env{0, 1, &m};
  env.charge(7);
  EXPECT_EQ(m.total(), 7u);
  ProcEnv no_meter{0, 1, nullptr};
  no_meter.charge(100);  // must not crash
}

}  // namespace
}  // namespace embsp::bsp
