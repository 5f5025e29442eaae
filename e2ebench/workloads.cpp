#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "cgm/graph_components.hpp"
#include "cgm/graph_list_ranking.hpp"
#include "cgm/sort.hpp"
#include "net/transport.hpp"
#include "util/checksum.hpp"

namespace e2ebench {
namespace fs = std::filesystem;
namespace em = embsp::em;
namespace cgm = embsp::cgm;
namespace util = embsp::util;

namespace {

constexpr std::array<WorkloadSpec, 3> kWorkloads = {{
    {"sort_file", 8'000'000, 1, 4, false, 1},
    {"listrank_file", 1'000'000, 1, 4, false, 1},
    {"cc_loopback", 300'000, 2, 2, true, 4},
}};

/// Order-independent multiset fingerprint: count, sum and xor of mixed
/// keys.
struct Fingerprint {
  std::uint64_t count = 0, sum = 0, x = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const std::vector<std::uint64_t>& keys) {
  Fingerprint f;
  for (const std::uint64_t k : keys) {
    const std::uint64_t h = util::mix64(k);
    f.count += 1;
    f.sum += h;
    f.x ^= h;
  }
  return f;
}

std::string check_sort(const Input& in, const Output& out) {
  if (!std::is_sorted(out.sorted.begin(), out.sorted.end())) {
    return "output is not sorted";
  }
  if (!(fingerprint(out.sorted) == fingerprint(in.keys))) {
    return "output is not a permutation of the input";
  }
  return {};
}

/// Ranks must equal the distance to the tail along a sequential walk from
/// the generator's head.
std::string check_listrank(const Input& in, const Output& out) {
  const std::uint64_t n = in.succ.size();
  if (out.rank1.size() != n || out.rank2.size() != n) {
    return "rank vectors have the wrong length";
  }
  std::uint64_t node = in.head;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (out.rank1[node] != n - 1 - i) {
      return "rank of node " + std::to_string(node) + " is " +
             std::to_string(out.rank1[node]) + ", walk says " +
             std::to_string(n - 1 - i);
    }
    if (out.rank2[node] != 0) return "second channel is not zero";
    if (i + 1 < n && in.succ[node] == node) return "list ends early";
    node = in.succ[node];
  }
  if (in.succ[node] != node) return "walk did not end at the tail";
  return {};
}

/// The partition must equal the generator's: truth label <-> component
/// label is a bijection over the vertices.
std::string check_cc(const Input& in, const Output& out) {
  constexpr std::uint64_t kUnset = ~std::uint64_t{0};
  const std::uint64_t n = in.truth.size();
  for (const auto& comp : out.component) {
    if (comp != out.component.front()) return "ranks disagree on labels";
  }
  const auto& comp = out.component.front();
  if (comp.size() != n) return "label vector has the wrong length";
  const std::uint64_t k =
      n == 0 ? 0 : *std::max_element(in.truth.begin(), in.truth.end()) + 1;
  std::vector<std::uint64_t> label_of_truth(k, kUnset);
  std::unordered_map<std::uint64_t, std::uint64_t> truth_of_label;
  truth_of_label.reserve(k);
  for (std::uint64_t u = 0; u < n; ++u) {
    auto& mapped = label_of_truth[in.truth[u]];
    if (mapped == kUnset) mapped = comp[u];
    const auto [it, fresh] = truth_of_label.emplace(comp[u], in.truth[u]);
    if (mapped != comp[u] || (!fresh && it->second != in.truth[u])) {
      return "vertex " + std::to_string(u) + " is in the wrong component";
    }
  }
  return {};
}

Output run_cc(const WorkloadSpec& w, const Input& in, DrivePool& drives,
              embsp::obs::Recorder* recorder) {
  const embsp::sim::SimConfig cfg = make_config(w, recorder);
  const DriveFactory factory = drives.factory();
  auto group = embsp::net::make_loopback_group(w.p);
  std::vector<std::optional<cgm::ComponentsOutcome>> outs(w.p);
  std::vector<std::exception_ptr> errors(w.p);
  auto rank_main = [&](std::uint32_t r) {
    embsp::net::Transport* tp = group[r].get();
    std::optional<TimedTransport> timed;
    if (trace::enabled()) tp = &timed.emplace(*tp);
    try {
      BenchExec exec(cfg, factory, tp);
      outs[r] = cgm::cgm_connected_components(exec, w.n, in.edges, kV);
    } catch (...) {
      errors[r] = std::current_exception();
      tp->abort("benchmark rank " + std::to_string(r) + " failed");
    }
  };
  {
    std::vector<std::jthread> ranks;
    for (std::uint32_t r = 1; r < w.p; ++r) ranks.emplace_back(rank_main, r);
    rank_main(0);
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  Output out;
  for (auto& o : outs) out.component.push_back(std::move(o->component));
  out.exec = std::move(outs[0]->exec);
  return out;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

WorkloadSpec resized(const WorkloadSpec& w, std::uint64_t n) {
  WorkloadSpec out = w;
  out.n = n;
  return out;
}

embsp::sim::SimConfig make_config(const WorkloadSpec& w,
                                  embsp::obs::Recorder* recorder) {
  embsp::sim::SimConfig cfg;
  cfg.machine.p = w.p;
  cfg.machine.em = {kMemBytes, w.disks, kBlockBytes, 1.0};
  if (w.pipeline) {
    cfg.pipeline = true;
    cfg.io_engine = em::IoEngine::parallel;
    cfg.compute_threads = 1;
  }
  cfg.seed = kSimSeed;
  cfg.recorder = recorder;
  return cfg;
}

Input generate(const WorkloadSpec& w, std::uint64_t seed) {
  trace::Span span(trace::Kind::util_gen);
  Input in;
  if (w.name == "sort_file") {
    in.keys = util::random_keys(w.n, seed);
  } else if (w.name == "listrank_file") {
    std::tie(in.succ, in.head) = util::random_list(w.n, seed);
  } else {
    std::tie(in.edges, in.truth) =
        util::random_components_graph(w.n, w.n / 1000 + 2, w.n, seed);
  }
  return in;
}

ScratchDir::ScratchDir(fs::path dir) : dir_(std::move(dir)) {
  fs::create_directories(dir_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

DrivePool::DrivePool(const fs::path& dir, const WorkloadSpec& w) {
  fs::create_directories(dir);
  for (std::uint32_t r = 0; r < w.p; ++r) {
    for (std::uint32_t d = 0; d < w.disks; ++d) {
      const fs::path file = dir / ("rank" + std::to_string(r) + "-disk" +
                                   std::to_string(d) + ".emd");
      drives_.push_back(em::make_file_backend(file.string()));
    }
  }
}

DriveFactory DrivePool::factory() {
  return [this](std::size_t drive) -> std::unique_ptr<em::Backend> {
    if (drive >= drives_.size() || !drives_[drive]) {
      throw std::logic_error("drive " + std::to_string(drive) +
                             " requested twice or out of range");
    }
    auto backend = std::move(drives_[drive]);
    if (trace::enabled()) {
      return std::make_unique<TimedBackend>(std::move(backend));
    }
    return backend;
  };
}

Output run_cgm(const WorkloadSpec& w, const Input& in, DrivePool& drives,
                  embsp::obs::Recorder* recorder) {
  if (w.p > 1) return run_cc(w, in, drives, recorder);
  BenchExec exec(make_config(w, recorder), drives.factory());
  Output out;
  if (w.name == "sort_file") {
    auto r = cgm::cgm_sort<std::uint64_t, std::less<>>(
        exec, std::span<const std::uint64_t>(in.keys), kV);
    out.sorted = std::move(r.sorted);
    out.exec = std::move(r.exec);
  } else {
    auto r = cgm::cgm_list_ranking(exec, in.succ, kV);
    out.rank1 = std::move(r.rank1);
    out.rank2 = std::move(r.rank2);
    out.exec = std::move(r.exec);
  }
  return out;
}

std::string check(const WorkloadSpec& w, const Input& in, const Output& out) {
  if (w.name == "sort_file") return check_sort(in, out);
  if (w.name == "listrank_file") return check_listrank(in, out);
  return check_cc(in, out);
}

std::uint64_t model_parallel_ios(const embsp::sim::SimResult& r) {
  std::uint64_t ios = r.total_io.parallel_ios;
  for (const auto& io : r.per_proc_io) ios = std::max(ios, io.parallel_ios);
  return ios;
}

}  // namespace e2ebench
