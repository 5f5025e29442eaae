// In-memory span collector for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files only — around the calls
// it makes into each layer (decorators.hpp, bench_exec.hpp) — never from
// inside src/.  Each span carries its kind, start and end (steady clock),
// the enclosing span on the same thread as its parent, and the run id of
// the repetition it belongs to.  Per-kind totals (calls, busy time, self
// time, and a byte count recorded at the same boundary) are accumulated as
// spans close, so ratios are measured where the work happens; the span
// list itself is kept for the Chrome trace written at exit.
//
// Self time is a span's duration minus the time covered by its children on
// the same thread.  Work a layer hands to another thread (disk workers,
// loopback ranks) shows up as that thread's own top-level spans.
//
// Every span is a no-op until set_enabled(true), so the untraced
// end-to-end runs pay nothing beyond one relaxed load per boundary.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>

namespace e2ebench::trace {

enum class Kind : std::uint8_t {
  util_gen,
  bsp_dry_run,
  sim_run,
  cgm_superstep,
  cgm_serialize,
  cgm_deserialize,
  em_read,
  em_write,
  em_flush,
  net_post,
  net_progress,
  net_exchange,
};
inline constexpr std::size_t kKinds = 12;

/// Span name, e.g. "em.read".
const char* name(Kind k);

struct KindStats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t amount = 0;  ///< bytes moved or produced at this boundary

  [[nodiscard]] double total_s() const { return total_ns * 1e-9; }
  [[nodiscard]] double self_s() const { return self_ns * 1e-9; }
};

using Totals = std::array<KindStats, kKinds>;

void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// Starts a new repetition: bumps the run id and zeroes every thread's
/// totals.  The calling thread becomes the run's "caller" (see
/// caller_totals).  Call only while no spans are open and no other thread
/// that records spans is running.
void begin_run();

/// Totals summed over every thread that recorded spans since begin_run().
/// Read only after the threads that recorded them have been joined.
[[nodiscard]] Totals totals();

/// Totals of the thread that called begin_run(), the one that makes the
/// cgm calls.
[[nodiscard]] Totals caller_totals();

/// Writes every kept span as Chrome trace events (the JSON Object Format
/// obs::TraceWriter emits): pid = run id, tid = recording thread, and args
/// carrying the span id, its parent and its byte count.  At most kMaxSpans
/// are kept; the rest are counted in otherData.dropped_spans.
void write_chrome(std::ostream& out);

inline constexpr std::size_t kMaxSpans = 200'000;

/// RAII span on the calling thread; does nothing while tracing is off.
class Span {
 public:
  explicit Span(Kind kind, std::uint64_t amount = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Adds to the span's byte count (e.g. bytes a serializer produced).
  void add_amount(std::uint64_t bytes);

 private:
  bool on_;
};

}  // namespace e2ebench::trace
