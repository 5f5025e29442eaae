// Observability layer tests: LogHistogram arithmetic, Registry snapshots,
// trace-event output, phase spans — and the end-to-end guarantees ISSUE
// demands of the subsystem:
//   * attaching a recorder does not change simulation results, and
//   * serial vs parallel I/O engine with metrics enabled produce
//     byte-identical SimResult for a fixed seed.
// The JSON snapshot is validated against the golden schema documented in
// obs/metrics.hpp with a small recursive-descent checker (no third-party
// JSON dependency).
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cgm/graph_list_ranking.hpp"
#include "em/backend.hpp"
#include "em/io_stats.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_events.hpp"
#include "sim/seq_simulator.hpp"
#include "test_programs.hpp"
#include "util/rng.hpp"
#include "util/serialization.hpp"
#include "util/workloads.hpp"

namespace embsp {
namespace {

using obs::LogHistogram;

// --- Minimal JSON syntax validator ------------------------------------------
//
// Enough of RFC 8259 to reject every malformed snapshot a serialization bug
// could produce: balanced structure, quoted keys, legal literals/numbers.

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  // Full RFC 8259 string validation: raw control characters are illegal,
  // escapes are limited to the eight short forms plus \uXXXX, and the
  // bytes between escapes must be well-formed UTF-8 (no truncated or
  // overlong sequences, surrogates, or code points past U+10FFFF).  Strict
  // parsers enforce all of this, so the checker must too — the writer's
  // escaping bugs hid behind a lenient scanner here.
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      const auto u = static_cast<unsigned char>(s_[pos_]);
      if (u < 0x20) return false;  // must have been escaped
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int k = 1; k <= 4; ++k) {
            if (pos_ + k >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_ + k])) == 0) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
        ++pos_;
        continue;
      }
      if (u < 0x80) {
        ++pos_;
        continue;
      }
      std::size_t len;
      std::uint32_t cp;
      if ((u & 0xE0) == 0xC0) {
        len = 2;
        cp = u & 0x1Fu;
      } else if ((u & 0xF0) == 0xE0) {
        len = 3;
        cp = u & 0x0Fu;
      } else if ((u & 0xF8) == 0xF0) {
        len = 4;
        cp = u & 0x07u;
      } else {
        return false;  // stray continuation byte or 0xF8-0xFF lead
      }
      if (pos_ + len > s_.size()) return false;
      for (std::size_t k = 1; k < len; ++k) {
        const auto b = static_cast<unsigned char>(s_[pos_ + k]);
        if ((b & 0xC0) != 0x80) return false;
        cp = (cp << 6) | (b & 0x3Fu);
      }
      static constexpr std::uint32_t kMin[5] = {0, 0, 0x80, 0x800, 0x10000};
      if (cp < kMin[len]) return false;                 // overlong
      if (cp >= 0xD800 && cp <= 0xDFFF) return false;   // surrogate
      if (cp > 0x10FFFF) return false;                  // out of range
      pos_ += len;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

bool json_valid(const std::string& s) { return JsonChecker(s).valid(); }

// --- LogHistogram -----------------------------------------------------------

TEST(LogHistogram, BucketBoundaries) {
  // Bucket i holds values of bit width i: 0 | 1 | 2..3 | 4..7 | ...
  EXPECT_EQ(LogHistogram::bucket_index(0), 0u);
  EXPECT_EQ(LogHistogram::bucket_index(1), 1u);
  EXPECT_EQ(LogHistogram::bucket_index(2), 2u);
  EXPECT_EQ(LogHistogram::bucket_index(3), 2u);
  EXPECT_EQ(LogHistogram::bucket_index(4), 3u);
  EXPECT_EQ(LogHistogram::bucket_index(1023), 10u);
  EXPECT_EQ(LogHistogram::bucket_index(1024), 11u);
  EXPECT_EQ(LogHistogram::bucket_index(~std::uint64_t{0}), 64u);
  for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
    EXPECT_EQ(LogHistogram::bucket_index(LogHistogram::bucket_lo(i)), i);
    EXPECT_EQ(LogHistogram::bucket_index(LogHistogram::bucket_hi(i)), i);
  }
}

TEST(LogHistogram, RecordAndSummaryStats) {
  LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.min(), 0u);  // defined as 0 when empty
  for (std::uint64_t v : {5u, 100u, 7u, 0u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 112u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 28.0);
  EXPECT_EQ(h.bucket_count(0), 1u);  // the 0
  EXPECT_EQ(h.bucket_count(3), 2u);  // 5 and 7
  EXPECT_EQ(h.bucket_count(7), 1u);  // 100
}

TEST(LogHistogram, PercentileWithinOneBucket) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  // p100 is exact; lower quantiles are exact to the enclosing power of two.
  EXPECT_EQ(h.percentile(1.0), 100u);
  const auto p50 = h.percentile(0.5);
  EXPECT_GE(p50, 50u);
  EXPECT_LE(p50, 63u);  // bucket_hi(6)
  EXPECT_EQ(h.percentile(0.0), 1u);  // clamped to bucket_hi(1) = 1
}

TEST(LogHistogram, MergeMatchesCombinedRecording) {
  LogHistogram a, b, both;
  for (std::uint64_t v : {1u, 8u, 300u}) { a.record(v); both.record(v); }
  for (std::uint64_t v : {0u, 9u, 4096u}) { b.record(v); both.record(v); }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.sum(), both.sum());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
    EXPECT_EQ(a.bucket_count(i), both.bucket_count(i)) << "bucket " << i;
  }
}

// --- Registry + JSON snapshot ----------------------------------------------

TEST(Registry, CountersGaugesHistograms) {
  obs::Registry reg;
  EXPECT_TRUE(reg.empty());
  reg.add("a.calls");
  reg.add("a.calls", 4);
  reg.set_gauge("a.ratio", 0.5);
  reg.observe("a.lat", 100);
  reg.observe("a.lat", 200);
  LogHistogram h;
  h.record(7);
  reg.merge_histogram("a.lat", h);
  EXPECT_FALSE(reg.empty());
  EXPECT_EQ(reg.counter("a.calls"), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge("a.ratio"), 0.5);
  EXPECT_EQ(reg.histogram("a.lat").count(), 3u);
  EXPECT_EQ(reg.counter("missing"), 0u);
  EXPECT_TRUE(reg.histogram("missing").empty());
  reg.clear();
  EXPECT_TRUE(reg.empty());
}

/// Golden-schema check: valid JSON with the exact top-level shape
/// documented in obs/metrics.hpp.
void expect_golden_snapshot(const std::string& json) {
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(Registry, JsonSnapshotMatchesGoldenSchema) {
  obs::Registry reg;
  reg.add("engine.stall_ns", 12345);
  reg.set_gauge("sim.group_size", 8.0);
  reg.observe("phase.compute.wall_ns", 1000);
  reg.observe("phase.compute.wall_ns", 3000);
  std::ostringstream out;
  reg.write_json(out);
  const std::string json = out.str();
  expect_golden_snapshot(json);
  // Histogram entries carry the full summary block.
  for (const char* key : {"\"count\"", "\"sum\"", "\"min\"", "\"max\"",
                          "\"mean\"", "\"p50\"", "\"p99\"", "\"buckets\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(Registry, EmptySnapshotIsStillValidJson) {
  obs::Registry reg;
  std::ostringstream out;
  reg.write_json(out);
  expect_golden_snapshot(out.str());
}

TEST(JsonWriter, NonFiniteDoublesRenderAsNull) {
  // NaN and ±Inf are not JSON; a snapshot containing one must stay
  // parseable, so the writer maps every non-finite double to null.
  std::ostringstream out;
  {
    obs::JsonWriter w(out, /*indent=*/0);
    w.begin_object();
    w.kv("nan", std::numeric_limits<double>::quiet_NaN());
    w.kv("inf", std::numeric_limits<double>::infinity());
    w.kv("ninf", -std::numeric_limits<double>::infinity());
    w.kv("finite", 1.5);
    w.end_object();
  }
  const std::string json = out.str();
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"nan\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"inf\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ninf\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"finite\": 1.5"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan("), std::string::npos) << json;
}

TEST(Registry, NonFiniteGaugeSnapshotStaysValidJson) {
  // End to end through the registry: a gauge that divides by zero upstream
  // (e.g. a ratio over an empty run) must not corrupt the metrics file.
  obs::Registry reg;
  reg.set_gauge("sim.overlap_ratio", std::numeric_limits<double>::quiet_NaN());
  reg.set_gauge("sim.speedup", std::numeric_limits<double>::infinity());
  reg.add("engine.calls", 1);
  std::ostringstream out;
  reg.write_json(out);
  const std::string json = out.str();
  expect_golden_snapshot(json);
  EXPECT_NE(json.find("\"sim.overlap_ratio\": null"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"sim.speedup\": null"), std::string::npos) << json;
}

TEST(Registry, EngineStatsExportCoversDrainErrorsAndUring) {
  // The drain-error record (swallowed async errors) and the uring ring
  // counters surface in the metrics snapshot; the gauge for the error kind
  // appears only once an error has actually been swallowed.
  em::EngineStats stats;
  stats.per_disk.resize(1);
  {
    obs::Registry reg;
    em::export_metrics(stats, reg, "engine.");
    EXPECT_EQ(reg.counter("engine.drain_errors"), 0u);
    EXPECT_EQ(reg.counter("engine.elided_tracks"), 0u);
    std::ostringstream out;
    reg.write_json(out);
    EXPECT_EQ(out.str().find("engine.last_drain_error_kind"),
              std::string::npos);
    // No rings → no uring block.
    EXPECT_EQ(out.str().find("engine.uring.sqes"), std::string::npos);
  }
  stats.per_disk[0].elided_tracks = 5;
  stats.drain_errors = 3;
  stats.last_drain_error_kind = 1;  // persistent
  stats.last_drain_error = "disk 0 track 7: I/O error";
  stats.uring.rings = 4;
  stats.uring.direct_rings = 4;
  stats.uring.sqes = 128;
  stats.uring.enters = 32;
  stats.uring.fixed_ops = 100;
  stats.uring.bounced_bytes = 4096;
  stats.uring.ring_depth.record(8);
  stats.uring.completion_ns.record(25000);
  {
    obs::Registry reg;
    em::export_metrics(stats, reg, "engine.");
    EXPECT_EQ(reg.counter("engine.drain_errors"), 3u);
    EXPECT_EQ(reg.counter("engine.disk.0.elided_tracks"), 5u);
    EXPECT_EQ(reg.counter("engine.elided_tracks"), 5u);
    EXPECT_DOUBLE_EQ(reg.gauge("engine.last_drain_error_kind"), 1.0);
    EXPECT_EQ(reg.counter("engine.uring.rings"), 4u);
    EXPECT_EQ(reg.counter("engine.uring.sqes"), 128u);
    EXPECT_EQ(reg.counter("engine.uring.fixed_ops"), 100u);
    EXPECT_EQ(reg.counter("engine.uring.bounced_bytes"), 4096u);
    EXPECT_EQ(reg.histogram("engine.uring.ring_depth").count(), 1u);
    EXPECT_EQ(reg.histogram("engine.uring.completion_ns").count(), 1u);
    std::ostringstream out;
    reg.write_json(out);
    EXPECT_TRUE(json_valid(out.str()));
  }
}

TEST(JsonWriter, EscapesAndNesting) {
  std::ostringstream out;
  {
    obs::JsonWriter w(out, /*indent=*/0);
    w.begin_object();
    w.kv("quote\"back\\slash", std::string_view("tab\there\nnewline"));
    w.kv("num", 42);
    w.kv("neg", -1.5);
    w.kv("flag", true);
    w.key("arr");
    w.begin_array();
    w.value(std::uint64_t{18446744073709551615ull});  // u64 max survives
    w.end_array();
    w.end_object();
  }
  const std::string json = out.str();
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\\\"back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("18446744073709551615"), std::string::npos);
}

TEST(JsonWriter, EscapesEveryControlCharacterAndDel) {
  // RFC 8259 outlaws raw control characters in strings; DEL must not pass
  // through raw either (it is invisible in a terminal and confuses naive
  // log pipelines even though the spec tolerates it).
  for (int c = 0; c < 0x20; ++c) {
    std::ostringstream out;
    obs::JsonWriter w(out, -1);
    w.value(std::string(1, static_cast<char>(c)));
    const std::string json = out.str();
    EXPECT_TRUE(json_valid(json)) << "control char " << c << ": " << json;
    EXPECT_EQ(json.find(static_cast<char>(c)), std::string::npos)
        << "raw control byte " << c << " leaked into " << json;
  }
  std::ostringstream out;
  obs::JsonWriter w(out, -1);
  w.value("x\x7fy");
  EXPECT_EQ(out.str(), "\"x\\u007fy\"");
}

TEST(JsonWriter, InvalidUtf8BecomesReplacementCharacter) {
  const struct {
    const char* label;
    std::string input;
  } cases[] = {
      {"stray continuation", "a\x80z"},
      {"truncated 2-byte", "a\xC3"},
      {"truncated 3-byte", "a\xE2\x82"},
      {"overlong slash", "a\xC0\xAFz"},
      {"surrogate half", "a\xED\xA0\x80z"},
      {"beyond U+10FFFF", "a\xF4\x90\x80\x80z"},
      {"fe-ff bytes", "a\xFE\xFFz"},
  };
  for (const auto& c : cases) {
    std::ostringstream out;
    obs::JsonWriter w(out, -1);
    w.value(c.input);
    EXPECT_TRUE(json_valid(out.str()))
        << c.label << " emitted unparseable JSON: " << out.str();
    EXPECT_NE(out.str().find("\xEF\xBF\xBD"), std::string::npos) << c.label;
  }
  // Well-formed multibyte text passes through byte-identical.
  std::ostringstream out;
  obs::JsonWriter w(out, -1);
  w.value("caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x9A\x80");
  EXPECT_EQ(out.str(), "\"caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x9A\x80\"");
}

TEST(JsonWriter, FuzzedByteStringsAlwaysParse) {
  // Random byte soup as both key and value — whatever label a caller
  // concocts, the document must stay parseable by a strict JSON parser.
  util::Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string s;
    const std::size_t n = rng.below(24);
    for (std::size_t i = 0; i < n; ++i) {
      switch (rng.below(5)) {
        case 0:  // arbitrary byte, including invalid UTF-8 leads
          s += static_cast<char>(rng.below(256));
          break;
        case 1:  // control characters
          s += static_cast<char>(rng.below(0x20));
          break;
        case 2:  // bytes that need escaping
          s += (rng.below(2) != 0) ? '"' : '\\';
          break;
        case 3:  // a valid multibyte sequence, sometimes truncated
          s += (rng.below(3) != 0) ? "\xE2\x82\xAC" : "\xE2\x82";
          break;
        default:  // plain ASCII
          s += static_cast<char>('a' + rng.below(26));
      }
    }
    std::ostringstream out;
    obs::JsonWriter w(out, -1);
    w.begin_object();
    w.key(s);
    w.value(s);
    w.end_object();
    ASSERT_TRUE(w.balanced());
    ASSERT_TRUE(json_valid(out.str()))
        << "trial " << trial << " produced unparseable JSON: " << out.str();
  }
}

// --- TraceWriter ------------------------------------------------------------

TEST(TraceWriter, EventsRenderAsChromeTraceJson) {
  obs::TraceWriter tw;
  const auto t0 = obs::TraceWriter::now_ns();
  tw.duration("fetch_ctx", "phase", 0, t0, 2'000);
  tw.duration("compute", "phase", 3, t0 + 2'000, 5'000);
  tw.instant("rollback.superstep", "recovery", 1, t0 + 4'000);
  EXPECT_EQ(tw.size(), 3u);
  std::ostringstream out;
  tw.write_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(json_valid(json)) << json;
  // The trace sink writes compact JSON (no spaces after colons).
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
}

// --- PhaseSpan --------------------------------------------------------------

TEST(PhaseSpan, NullRecorderIsFree) {
  obs::PhaseSpan span(nullptr, "compute");
  span.add_cost({1, 2, 3, 4, 5});
  // Destruction must not touch anything; nothing to assert beyond "no
  // crash" — the real guarantee (no clock reads / no locking) is by code
  // inspection of the rec_ == nullptr early-outs.
}

TEST(PhaseSpan, RecordsWallClockAndCost) {
  obs::Recorder rec;
  rec.trace_enabled = true;
  {
    obs::PhaseSpan span(&rec, "fetch_msg", /*tid=*/2);
    span.add_cost({3, 5, 0, 640, 0});
    span.add_cost({1, 0, 2, 0, 256});
  }
  auto& reg = rec.registry;
  EXPECT_EQ(reg.counter("phase.fetch_msg.calls"), 1u);
  EXPECT_EQ(reg.counter("phase.fetch_msg.parallel_ios"), 4u);
  EXPECT_EQ(reg.counter("phase.fetch_msg.blocks_read"), 5u);
  EXPECT_EQ(reg.counter("phase.fetch_msg.blocks_written"), 2u);
  EXPECT_EQ(reg.counter("phase.fetch_msg.bytes_read"), 640u);
  EXPECT_EQ(reg.counter("phase.fetch_msg.bytes_written"), 256u);
  EXPECT_EQ(reg.histogram("phase.fetch_msg.wall_ns").count(), 1u);
  EXPECT_EQ(rec.trace.size(), 1u);
}

// --- End-to-end: metrics do not perturb simulation results ------------------

sim::SimConfig obs_config(em::IoEngine engine = em::IoEngine::serial) {
  sim::SimConfig cfg;
  cfg.machine.p = 1;
  cfg.machine.bsp.v = 16;
  cfg.machine.em.D = 4;
  cfg.machine.em.B = 128;
  cfg.machine.em.M = 1 << 16;
  cfg.mu = 64;
  cfg.gamma = 600;
  cfg.io_engine = engine;
  cfg.seed = 0x5EEDULL;
  return cfg;
}

/// Runs PrefixSum on the sequential simulator and returns (serialized final
/// states, result).
std::pair<std::vector<std::vector<std::byte>>, sim::SimResult> run_prefix(
    sim::SimConfig cfg) {
  using embsp::testing::PrefixSumProgram;
  std::vector<std::vector<std::byte>> states(cfg.machine.bsp.v);
  sim::SeqSimulator simr(cfg);
  auto result = simr.run<PrefixSumProgram>(
      PrefixSumProgram{},
      [](std::uint32_t pid) {
        PrefixSumProgram::State s;
        s.value = pid * 3 + 1;
        return s;
      },
      [&](std::uint32_t pid, PrefixSumProgram::State& s) {
        util::Writer w;
        s.serialize(w);
        states[pid] = w.take();
      });
  return {std::move(states), std::move(result)};
}

void expect_same_io(const em::IoStats& a, const em::IoStats& b) {
  EXPECT_EQ(a.parallel_ios, b.parallel_ios);
  EXPECT_EQ(a.blocks_read, b.blocks_read);
  EXPECT_EQ(a.blocks_written, b.blocks_written);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
}

TEST(ObsEndToEnd, RecorderDoesNotChangeResults) {
  auto [plain_states, plain] = run_prefix(obs_config());

  obs::Recorder rec;
  rec.trace_enabled = true;
  auto cfg = obs_config();
  cfg.recorder = &rec;
  auto [obs_states, observed] = run_prefix(cfg);

  EXPECT_EQ(plain_states, obs_states);
  EXPECT_EQ(plain.lambda(), observed.lambda());
  expect_same_io(plain.total_io, observed.total_io);
  EXPECT_EQ(plain.group_size, observed.group_size);
  EXPECT_EQ(plain.max_tracks_per_disk, observed.max_tracks_per_disk);

  // The run populated phase spans, engine metrics and simulator gauges.
  auto& reg = rec.registry;
  for (const char* phase : {"init", "fetch_ctx", "fetch_msg", "compute",
                            "write_msg", "write_ctx", "reorganize",
                            "collect"}) {
    EXPECT_GT(reg.counter(std::string("phase.") + phase + ".calls"), 0u)
        << phase;
    EXPECT_FALSE(
        reg.histogram(std::string("phase.") + phase + ".wall_ns").empty())
        << phase;
  }
  // Phase model-cost counters must reproduce the PhaseIo breakdown exactly.
  EXPECT_EQ(reg.counter("phase.fetch_ctx.parallel_ios"),
            observed.phase_io.fetch_ctx.parallel_ios);
  EXPECT_EQ(reg.counter("phase.reorganize.parallel_ios"),
            observed.phase_io.reorganize.parallel_ios);
  EXPECT_GT(reg.counter("engine.disk.0.ops"), 0u);
  EXPECT_FALSE(reg.histogram("engine.disk.0.service_ns").empty());
  EXPECT_FALSE(reg.histogram("engine.queue_depth").empty());
  EXPECT_EQ(reg.counter("sim.supersteps"), observed.lambda());
  EXPECT_EQ(reg.counter("routing.blocks_total"),
            observed.routing_stats.blocks_total);
  EXPECT_FALSE(rec.trace.empty());

  // And the snapshot serializes to the golden schema.
  std::ostringstream out;
  reg.write_json(out);
  expect_golden_snapshot(out.str());
}

TEST(ObsEndToEnd, SerialAndParallelEnginesByteIdenticalWithMetrics) {
  obs::Recorder rec_s, rec_p;
  auto cfg_s = obs_config(em::IoEngine::serial);
  cfg_s.recorder = &rec_s;
  auto cfg_p = obs_config(em::IoEngine::parallel);
  cfg_p.recorder = &rec_p;

  auto [states_s, res_s] = run_prefix(cfg_s);
  auto [states_p, res_p] = run_prefix(cfg_p);

  // Byte-identical final states and identical model accounting: the engine
  // choice affects wall-clock only, never results or model cost — with
  // metrics enabled on both sides.
  EXPECT_EQ(states_s, states_p);
  EXPECT_EQ(res_s.lambda(), res_p.lambda());
  expect_same_io(res_s.total_io, res_p.total_io);
  expect_same_io(res_s.phase_io.reorganize, res_p.phase_io.reorganize);
  EXPECT_EQ(res_s.routing_stats.blocks_total,
            res_p.routing_stats.blocks_total);
  EXPECT_EQ(res_s.max_tracks_per_disk, res_p.max_tracks_per_disk);

  // Model-cost metrics agree across engines; wall-clock histograms differ,
  // which is exactly why they are separate metrics.
  EXPECT_EQ(rec_s.registry.counter("phase.reorganize.parallel_ios"),
            rec_p.registry.counter("phase.reorganize.parallel_ios"));
  EXPECT_EQ(rec_s.registry.counter("engine.disk.0.ops"),
            rec_p.registry.counter("engine.disk.0.ops"));
}

/// Sequential EM executor over file-backed drives in a scratch directory.
class FileSeqExec {
 public:
  FileSeqExec(sim::SimConfig cfg, std::string tag)
      : cfg_(cfg), tag_(std::move(tag)) {}

  template <bsp::Program P>
  cgm::ExecResult run(
      const P& prog, std::uint32_t v,
      const std::function<typename P::State(std::uint32_t)>& make_state,
      const std::function<void(std::uint32_t, typename P::State&)>& collect) {
    const auto cfg = cgm::autoconfigure(cfg_, prog, v, make_state);
    const auto dir = std::filesystem::temp_directory_path();
    sim::SeqSimulator s(cfg, [&](std::size_t d) {
      return em::make_file_backend(
          (dir / ("embsp_obs_elide_" + tag_ + "_" + std::to_string(d) +
                  ".bin"))
              .string());
    });
    auto r = s.run(prog, make_state, collect);
    cgm::ExecResult out{r.lambda(), r.costs, std::nullopt};
    out.sim = std::move(r);
    return out;
  }

 private:
  sim::SimConfig cfg_;
  std::string tag_;
};

TEST(ObsEndToEnd, FileBackedListRankingExportsElidedTracks) {
  // Unchanged context blocks are not written back: the snapshot shows the
  // saved tracks per disk and in total.  A journaled store (superstep
  // recovery) writes the other bank and never elides.
  const auto list = util::random_list(2000, 17).first;
  std::vector<std::uint64_t> ranks[2];
  std::uint64_t total_io[2] = {0, 0};
  for (const bool journaled : {false, true}) {
    obs::Recorder rec;
    sim::SimConfig cfg;
    cfg.machine.em = {64u << 10, 4, 1024, 1.0};
    cfg.superstep_recovery = journaled;
    cfg.recorder = &rec;
    FileSeqExec exec(cfg, journaled ? "journaled" : "plain");
    const auto out = cgm::cgm_list_ranking(exec, list, 16);
    ranks[journaled ? 1 : 0] = out.rank1;
    total_io[journaled ? 1 : 0] = out.exec.sim->total_io.parallel_ios;

    const auto& reg = rec.registry;
    std::uint64_t per_disk = 0;
    for (int d = 0; d < 4; ++d) {
      per_disk += reg.counter("engine.disk." + std::to_string(d) +
                              ".elided_tracks");
    }
    EXPECT_EQ(per_disk, reg.counter("engine.elided_tracks"));
    if (journaled) {
      EXPECT_EQ(reg.counter("engine.elided_tracks"), 0u);
    } else {
      EXPECT_GT(reg.counter("engine.elided_tracks"), 0u);
    }
    std::ostringstream json;
    reg.write_json(json);
    expect_golden_snapshot(json.str());
    EXPECT_NE(json.str().find("\"engine.elided_tracks\""), std::string::npos);
  }
  EXPECT_EQ(ranks[0], ranks[1]);
  EXPECT_EQ(total_io[0], total_io[1]);
}

}  // namespace
}  // namespace embsp
