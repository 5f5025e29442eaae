// End-to-end EM-BSP benchmark: runs one workload on file-backed drives for
// a fixed time, checks every output, and prints one JSON result line.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            --scratch DIR [--trace-out FILE]
//
// After one unreported warm-up repetition, --trace 0 measures the
// end-to-end metrics with tracing off.  --trace 1 alternates untraced and
// traced repetitions and reports the per-layer metrics of the traced ones
// (medians), plus the tracing overhead; the spans of every traced
// repetition go to --trace-out as Chrome trace events.  --scratch names a directory the run creates for its drive files
// and removes, with everything in it, on every exit path.  See README.md
// for the metric tables.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/span.hpp"
#include "trace.hpp"
#include "util/parse.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using e2ebench::trace::Kind;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  std::uint64_t seconds = 10;
  bool trace = false;
  fs::path scratch;
  std::string trace_out;
};

/// Repetitions a run makes even when --seconds has elapsed, so every
/// reported value is a median of at least this many: untraced ones in an
/// untraced run, and of each kind in a traced run.
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMinTracedPairs = 2;

struct Metric {
  std::string name;
  const char* unit;
};

const std::vector<Metric> kEndToEnd = {
    {"run_s", "s"},          {"records_per_s", "records/s"},
    {"cpu_s", "s"},          {"setup_s", "s"},
    {"peak_rss_mib", "MiB"}, {"model_parallel_ios", "count"},
};

/// Simulator phases whose Recorder wall-clock histograms are reported.
constexpr const char* kPhases[] = {
    "init",         "fetch_ctx",    "fetch_msg",     "compute",
    "write_msg",    "write_ctx",    "reorganize",    "collect",
    "prefetch_ctx", "prefetch_msg", "writeback_ctx", "writeback_msg",
};

std::string phase_metric(const char* phase) {
  return "sim.phase." + std::string(phase) + "_s";
}

std::vector<Metric> layer_metric_table() {
  std::vector<Metric> t = {
      {"util.gen_s", "s"},
      {"bsp.dry_run_s", "s"},
      {"bsp.dry_run_share", "ratio"},
      {"cgm.superstep_s", "s"},
      {"cgm.superstep_calls", "count"},
      {"cgm.serialize_s", "s"},
      {"cgm.deserialize_s", "s"},
      {"cgm.context_bytes", "B"},
      {"sim.run_s", "s"},
      {"sim.self_s", "s"},
  };
  for (const char* p : kPhases) t.push_back({phase_metric(p), "s"});
  t.insert(t.end(), {
                        {"sim.reorganize_ios", "count"},
                        {"sim.routing.useful_block_ratio", "ratio"},
                        {"sim.overlap_ratio", "ratio"},
                        {"em.read_s", "s"},
                        {"em.write_s", "s"},
                        {"em.flush_s", "s"},
                        {"em.read_calls", "count"},
                        {"em.write_calls", "count"},
                        {"em.bytes_read", "B"},
                        {"em.bytes_written", "B"},
                        {"em.bytes_per_record", "B/record"},
                        {"em.blocks_moved", "count"},
                        {"em.utilization", "ratio"},
                        {"net.post_s", "s"},
                        {"net.progress_s", "s"},
                        {"net.exchange_s", "s"},
                        {"net.exchanges", "count"},
                        {"net.messages", "count"},
                        {"net.bytes", "B"},
                        {"unattributed_s", "s"},
                        {"trace_overhead", "ratio"},
                    });
  return t;
}

struct Rep {
  double setup_s = 0, run_s = 0, cpu_s = 0, rss_mib = 0;
  std::uint64_t ios = 0;
  std::map<std::string, double> layers;  ///< traced repetitions only
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Returns freed heap to the kernel, then resets the resident high-water
/// mark to the current RSS, so the next reading is this repetition's peak
/// and not memory an earlier one left in the allocator.  False when the
/// kernel refuses (the reading is then the process-lifetime peak).
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Simulator results of a repetition's cgm calls, summed.
struct SimTotals {
  std::uint64_t reorganize_ios = 0;
  std::uint64_t blocks_total = 0, dummy_blocks = 0;
  std::uint64_t blocks_moved = 0, parallel_ios = 0;
  double overlap_sum = 0;
  std::size_t calls = 0;

  void add(const embsp::sim::SimResult& r) {
    reorganize_ios += r.phase_io.reorganize.parallel_ios;
    blocks_total += r.routing_stats.blocks_total;
    dummy_blocks += r.routing_stats.dummy_blocks;
    blocks_moved += r.total_io.blocks_read + r.total_io.blocks_written;
    parallel_ios += r.total_io.parallel_ios;
    overlap_sum += r.overlap_ratio;
    calls += 1;
  }
};

std::map<std::string, double> layer_metrics(const e2ebench::WorkloadSpec& w,
                                            const SimTotals& sim,
                                            const embsp::obs::Registry& reg,
                                            double run_s) {
  const auto all = e2ebench::trace::totals();
  const auto caller = e2ebench::trace::caller_totals();
  auto at = [](const e2ebench::trace::Totals& t, Kind k) {
    return t[static_cast<std::size_t>(k)];
  };
  std::map<std::string, double> m;
  m["util.gen_s"] = at(all, Kind::util_gen).total_s();
  m["bsp.dry_run_s"] = at(all, Kind::bsp_dry_run).total_s();
  m["bsp.dry_run_share"] = at(caller, Kind::bsp_dry_run).total_s() / run_s;
  m["cgm.superstep_s"] = at(all, Kind::cgm_superstep).total_s();
  m["cgm.superstep_calls"] = at(all, Kind::cgm_superstep).calls;
  m["cgm.serialize_s"] = at(all, Kind::cgm_serialize).total_s();
  m["cgm.deserialize_s"] = at(all, Kind::cgm_deserialize).total_s();
  m["cgm.context_bytes"] = at(all, Kind::cgm_serialize).amount;
  m["sim.run_s"] = at(all, Kind::sim_run).total_s();
  m["sim.self_s"] = at(all, Kind::sim_run).self_s();
  for (const char* p : kPhases) {
    m[phase_metric(p)] =
        reg.histogram("phase." + std::string(p) + ".wall_ns").sum() * 1e-9;
  }
  m["sim.reorganize_ios"] = sim.reorganize_ios;
  // Nothing routed wastes nothing.
  m["sim.routing.useful_block_ratio"] =
      sim.blocks_total == 0
          ? 1.0
          : static_cast<double>(sim.blocks_total - sim.dummy_blocks) /
                sim.blocks_total;
  m["sim.overlap_ratio"] = sim.overlap_sum / sim.calls;
  const auto rd = at(all, Kind::em_read);
  const auto wr = at(all, Kind::em_write);
  m["em.read_s"] = rd.total_s();
  m["em.write_s"] = wr.total_s();
  m["em.flush_s"] = at(all, Kind::em_flush).total_s();
  m["em.read_calls"] = rd.calls;
  m["em.write_calls"] = wr.calls;
  m["em.bytes_read"] = rd.amount;
  m["em.bytes_written"] = wr.amount;
  m["em.bytes_per_record"] = static_cast<double>(rd.amount + wr.amount) /
                             static_cast<double>(w.n * sim.calls);
  m["em.blocks_moved"] = sim.blocks_moved;
  m["em.utilization"] =
      sim.parallel_ios == 0
          ? 0.0
          : static_cast<double>(sim.blocks_moved) /
                (static_cast<double>(sim.parallel_ios) * w.disks);
  m["net.post_s"] = at(all, Kind::net_post).total_s();
  m["net.progress_s"] = at(all, Kind::net_progress).total_s();
  m["net.exchange_s"] = at(all, Kind::net_exchange).total_s();
  m["net.exchanges"] = at(all, Kind::net_exchange).calls;
  m["net.messages"] = at(all, Kind::net_post).calls;
  m["net.bytes"] = at(all, Kind::net_post).amount;
  m["unattributed_s"] = run_s - at(caller, Kind::bsp_dry_run).total_s() -
                        at(caller, Kind::sim_run).total_s();
  return m;
}

/// One repetition: set-up (generating the workload's inputs and creating
/// their drive files), then the timed cgm call on each input in turn,
/// each output checked after its call.  Times and counts are totals over
/// the inputs; the peak RSS is the highest of the calls.  `problem` is set
/// when an output is wrong.
Rep run_rep(const e2ebench::WorkloadSpec& w, std::uint32_t inputs,
            const Args& args, const fs::path& dir, bool traced,
            std::string& problem) {
  namespace trace = e2ebench::trace;
  trace::set_enabled(traced);
  if (traced) trace::begin_run();
  std::optional<embsp::obs::Recorder> recorder;
  if (traced) recorder.emplace();
  embsp::obs::Recorder* rec = recorder ? &*recorder : nullptr;

  struct Job {
    e2ebench::Input in;
    e2ebench::DrivePool drives;
  };
  Rep rep;
  const auto t0 = Clock::now();
  const e2ebench::ScratchDir rep_dir(dir);
  std::deque<Job> jobs;  // a deque never moves a pool its factory points at
  for (std::uint32_t j = 0; j < inputs; ++j) {
    jobs.push_back({e2ebench::generate(w, e2ebench::input_seed(args.seed, j)),
                    e2ebench::DrivePool(dir / ("input" + std::to_string(j)), w)});
  }
  rep.setup_s = seconds_since(t0);

  SimTotals sim;
  for (Job& job : jobs) {
    if (!reset_peak_rss()) {
      std::cerr << "warning: cannot reset the RSS high-water mark\n";
    }
    const double cpu0 = cpu_seconds();
    const auto t1 = Clock::now();
    const e2ebench::Output out = e2ebench::run_cgm(w, job.in, job.drives, rec);
    rep.run_s += seconds_since(t1);
    rep.cpu_s += cpu_seconds() - cpu0;
    rep.rss_mib = std::max(rep.rss_mib, peak_rss_mib());
    rep.ios += e2ebench::model_parallel_ios(*out.exec.sim);
    sim.add(*out.exec.sim);
    problem = e2ebench::check(w, job.in, out);
    if (!problem.empty()) break;
  }
  trace::set_enabled(false);
  if (traced) rep.layers = layer_metrics(w, sim, rec->registry, rep.run_s);
  return rep;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

template <typename F>
double median_of(const std::vector<Rep>& reps, F field) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(field(r));
  return median(v);
}

bool parse_args(int argc, char** argv, Args& a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string_view val = argv[i + 1];
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--seed" || flag == "--seconds") {
      const auto v = embsp::util::parse_u64(val);
      if (!v) return false;
      (flag == "--seed" ? a.seed : a.seconds) = *v;
    } else if (flag == "--trace" && (val == "0" || val == "1")) {
      a.trace = val == "1";
    } else if (flag == "--scratch") {
      a.scratch = val;
    } else if (flag == "--trace-out") {
      a.trace_out = val;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && !a.scratch.empty();
}

/// The end-to-end metrics (untraced repetitions) or the per-layer metrics
/// (traced repetitions, with the overhead against the untraced ones).
std::map<std::string, double> summarize(const e2ebench::WorkloadSpec& w,
                                        const std::vector<Rep>& plain,
                                        const std::vector<Rep>& traced,
                                        bool trace_run) {
  std::map<std::string, double> v;
  const double run_s = median_of(plain, [](const Rep& r) { return r.run_s; });
  if (!trace_run) {
    v["run_s"] = run_s;
    v["records_per_s"] = static_cast<double>(w.n * w.inputs) / run_s;
    v["cpu_s"] = median_of(plain, [](const Rep& r) { return r.cpu_s; });
    v["setup_s"] = median_of(plain, [](const Rep& r) { return r.setup_s; });
    v["peak_rss_mib"] = median_of(plain, [](const Rep& r) { return r.rss_mib; });
    v["model_parallel_ios"] = static_cast<double>(plain.front().ios);
    return v;
  }
  for (const auto& entry : traced.front().layers) {
    const std::string& name = entry.first;
    v[name] = median_of(traced, [&](const Rep& r) { return r.layers.at(name); });
  }
  v["trace_overhead"] =
      median_of(traced, [](const Rep& r) { return r.run_s; }) / run_s - 1.0;
  return v;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& table,
                  const std::map<std::string, double>& values) {
  embsp::obs::JsonWriter j(std::cout, -1);
  j.begin_object();
  j.kv("correct", correct);
  j.kv("attempted", attempted);
  j.kv("failed", failed);
  j.key("metrics");
  j.begin_object();
  for (const Metric& m : table) {
    j.key(m.name);
    j.begin_object();
    j.kv("value", values.at(m.name));
    j.kv("unit", m.unit);
    j.end_object();
  }
  j.end_object();
  j.end_object();
  std::cout << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: e2ebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --scratch DIR [--trace-out FILE]\n";
    return 2;
  }
  const e2ebench::WorkloadSpec* w = e2ebench::find_workload(args.workload);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }

  std::vector<Rep> plain, traced;
  std::uint64_t attempted = 0, failed = 0;
  try {
    // Removed with everything under it on every exit path, failures too.
    const e2ebench::ScratchDir scratch(args.scratch);
    // Repetition 0 warms the allocator, page cache and code paths up on
    // the first input only; it is checked like the others but not
    // reported.  The measured window starts after it.
    std::optional<Clock::time_point> deadline;
    std::uint64_t ref_ios = 0;
    for (std::size_t i = 0; failed == 0; ++i) {
      const bool enough = args.trace ? plain.size() >= kMinTracedPairs &&
                                           traced.size() >= kMinTracedPairs
                                     : plain.size() >= kMinReps;
      if (deadline && Clock::now() >= *deadline && enough) break;
      const bool is_traced = args.trace && i % 2 == 0 && i > 0;
      std::string problem;
      ++attempted;
      Rep rep = run_rep(*w, i == 0 ? 1 : w->inputs, args,
                        scratch.path() / ("rep" + std::to_string(i)),
                        is_traced, problem);
      if (i == 1) ref_ios = rep.ios;
      if (problem.empty() && i > 1 && rep.ios != ref_ios) {
        problem = "model parallel I/Os changed between repetitions: " +
                  std::to_string(ref_ios) + " then " + std::to_string(rep.ios);
      }
      std::fprintf(stderr,
                   "%s rep %zu%s: setup %.3f s, run %.3f s, cpu %.3f s, "
                   "peak rss %.1f MiB (M = %zu MiB per processor), "
                   "%llu parallel I/Os%s%s\n",
                   args.workload.c_str(), i,
                   i == 0 ? " (warm-up)" : is_traced ? " (traced)" : "",
                   rep.setup_s, rep.run_s, rep.cpu_s, rep.rss_mib,
                   e2ebench::kMemBytes >> 20,
                   static_cast<unsigned long long>(rep.ios),
                   problem.empty() ? "" : ", WRONG: ", problem.c_str());
      if (!problem.empty()) ++failed;
      if (i == 0) {
        deadline = Clock::now() + std::chrono::seconds(args.seconds);
      } else {
        (is_traced ? traced : plain).push_back(std::move(rep));
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    ++failed;
  }
  if (failed > 0) {
    print_result(false, attempted, failed, {}, {});
    return 1;
  }

  const auto values = summarize(*w, plain, traced, args.trace);
  if (args.trace && !args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    e2ebench::trace::write_chrome(out);
  }
  print_result(true, attempted, failed,
               args.trace ? layer_metric_table() : kEndToEnd, values);
  return 0;
}
