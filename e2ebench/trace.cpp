#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace e2ebench::trace {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Event {
  Kind kind;
  std::uint32_t tid;
  std::uint32_t run;
  std::uint64_t id;
  std::uint64_t parent;  ///< 0 = top level on its thread
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t amount;
};

struct Open {
  Kind kind;
  std::uint64_t id;
  std::uint64_t start_ns;
  std::uint64_t child_ns;
  std::uint64_t amount;
};

/// One recording thread's state.  Owned by the collector (not the thread)
/// so totals of disk-worker threads survive after those threads exit.
struct ThreadLog {
  std::uint32_t tid = 0;
  std::vector<Open> stack;
  Totals totals{};
  std::vector<Event> events;
};

struct Collector {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint32_t> run{0};
  std::atomic<std::size_t> kept{0};
  std::atomic<std::size_t> dropped{0};
  std::mutex m;  ///< guards logs and caller
  std::vector<std::unique_ptr<ThreadLog>> logs;
  ThreadLog* caller = nullptr;
  std::uint64_t epoch_ns = now_ns();
};

Collector& collector() {
  static Collector c;
  return c;
}

ThreadLog& this_thread_log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    auto& c = collector();
    const std::lock_guard lock(c.m);
    c.logs.push_back(std::make_unique<ThreadLog>());
    log = c.logs.back().get();
    log->tid = static_cast<std::uint32_t>(c.logs.size() - 1);
  }
  return *log;
}

}  // namespace

const char* name(Kind k) {
  static constexpr std::array<const char*, kKinds> kNames = {
      "util.gen",      "bsp.dry_run",     "sim.run",  "cgm.superstep",
      "cgm.serialize", "cgm.deserialize", "em.read",  "em.write",
      "em.flush",      "net.post",        "net.progress", "net.exchange"};
  return kNames[static_cast<std::size_t>(k)];
}

void set_enabled(bool on) {
  collector().enabled.store(on, std::memory_order_relaxed);
}

bool enabled() { return collector().enabled.load(std::memory_order_relaxed); }

void begin_run() {
  auto& c = collector();
  ThreadLog& self = this_thread_log();
  c.run.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard lock(c.m);
  for (auto& log : c.logs) log->totals = Totals{};
  c.caller = &self;
}

Totals totals() {
  auto& c = collector();
  const std::lock_guard lock(c.m);
  Totals sum{};
  for (const auto& log : c.logs) {
    for (std::size_t k = 0; k < kKinds; ++k) {
      sum[k].calls += log->totals[k].calls;
      sum[k].total_ns += log->totals[k].total_ns;
      sum[k].self_ns += log->totals[k].self_ns;
      sum[k].amount += log->totals[k].amount;
    }
  }
  return sum;
}

Totals caller_totals() {
  auto& c = collector();
  const std::lock_guard lock(c.m);
  return c.caller != nullptr ? c.caller->totals : Totals{};
}

Span::Span(Kind kind, std::uint64_t amount) : on_(enabled()) {
  if (!on_) return;
  auto& c = collector();
  this_thread_log().stack.push_back(
      Open{kind, c.next_id.fetch_add(1, std::memory_order_relaxed), now_ns(),
           0, amount});
}

void Span::add_amount(std::uint64_t bytes) {
  if (on_) this_thread_log().stack.back().amount += bytes;
}

Span::~Span() {
  if (!on_) return;
  const std::uint64_t end = now_ns();
  auto& c = collector();
  ThreadLog& log = this_thread_log();
  const Open open = log.stack.back();
  log.stack.pop_back();
  const std::uint64_t dur = end - open.start_ns;
  auto& st = log.totals[static_cast<std::size_t>(open.kind)];
  st.calls += 1;
  st.total_ns += dur;
  st.self_ns += dur - std::min(dur, open.child_ns);
  st.amount += open.amount;
  std::uint64_t parent = 0;
  if (!log.stack.empty()) {
    log.stack.back().child_ns += dur;
    parent = log.stack.back().id;
  }
  if (c.kept.fetch_add(1, std::memory_order_relaxed) < kMaxSpans) {
    log.events.push_back(Event{open.kind, log.tid,
                               c.run.load(std::memory_order_relaxed), open.id,
                               parent, open.start_ns, end, open.amount});
  } else {
    c.dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

void write_chrome(std::ostream& out) {
  auto& c = collector();
  const std::lock_guard lock(c.m);
  embsp::obs::JsonWriter w(out, -1);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const auto& log : c.logs) {
    for (const Event& e : log->events) {
      const std::string_view full = name(e.kind);
      w.begin_object();
      w.kv("name", full);
      w.kv("cat", full.substr(0, full.find('.')));
      w.kv("ph", "X");
      w.kv("pid", static_cast<std::uint64_t>(e.run));
      w.kv("tid", static_cast<std::uint64_t>(e.tid));
      w.kv("ts", (e.start_ns - std::min(e.start_ns, c.epoch_ns)) * 1e-3);
      w.kv("dur", (e.end_ns - e.start_ns) * 1e-3);
      w.key("args");
      w.begin_object();
      w.kv("id", e.id);
      w.kv("parent", e.parent);
      w.kv("run", static_cast<std::uint64_t>(e.run));
      w.kv("bytes", e.amount);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.key("otherData");
  w.begin_object();
  w.kv("dropped_spans",
       static_cast<std::uint64_t>(c.dropped.load(std::memory_order_relaxed)));
  w.end_object();
  w.end_object();
  out << "\n";
}

}  // namespace e2ebench::trace
