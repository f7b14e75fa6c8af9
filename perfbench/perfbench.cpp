// perfbench — the end-to-end benchmark of analysis::Experiment on the
// default engine selection (engine = kAuto, scheduler = kAuto,
// pdes_workers = 0), i.e. exactly what analysis::run() does for a
// maintenance-mode RunSpec a user leaves at its defaults.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--spans PATH]
//
// One invocation measures one workload (README.md says why each exists):
//
//   1. A first run, checked and kept as the identity reference.  It is not
//      timed into the medians; its wall time against the steady median is
//      reported as harness.first_run_ratio (the first-run-in-process
//      penalty).
//   2. Timed runs until S seconds have passed (at least kMinTimedRuns).
//      Each is checked: it must not throw, must stay within gamma_bound,
//      hold validity, not diverge, complete every round, and be
//      results_identical to the reference.  The engine and PDES worker
//      count of every run are printed; a workload whose engine choice
//      drifts across runs is flagged (engine::PdesTuner is process-wide).
//   3. Constructor-only runs, spread over the same window, so setup_s is a
//      median of kSetupSamples constructor timings.
//   4. With --trace 1, one traced run: spans around the constructor and
//      run(), plus replays of each layer's public entry point on the
//      finished simulator, with the arguments run() used.  Spans are kept
//      in memory and written to --spans at the end.
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics (end-to-end metrics with --trace 0, per-layer with --trace 1).
// Lines before it are a human-readable report that names every metric.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/gradient.h"
#include "analysis/parallel_runner.h"
#include "analysis/skew.h"
#include "core/params.h"
#include "engine/pdes.h"
#include "net/partition.h"
#include "net/topology.h"

namespace {

using namespace wlsync;
using Clock = std::chrono::steady_clock;

constexpr int kMinTimedRuns = 3;
/// Constructor timings setup_s takes its median over (timed runs included).
constexpr int kSetupSamples = 41;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ----------------------------------------------------------- workloads ---

// Round count of every full-size workload: long enough that the steady
// state dominates, short enough for several timed runs per workload.
constexpr std::int32_t kRounds = 8;
constexpr std::int32_t kSmokeRounds = 4;

/// The workload's RunSpec.  Engine, scheduler and PDES worker count stay at
/// their defaults; the seed drives the simulation and the k-regular stride
/// draw.  --smoke shrinks every workload to a few dozen processes.
analysis::RunSpec make_spec(const std::string& name, std::uint64_t seed,
                            bool smoke) {
  analysis::RunSpec spec;
  spec.seed = seed;
  spec.rounds = smoke ? kSmokeRounds : kRounds;
  const auto params = [](std::int32_t n, std::int32_t f) {
    return core::make_params(n, f, 1e-5, 0.01, 1e-3, 10.0);
  };
  if (name == "cliques_nic") {
    const std::int32_t n = smoke ? 64 : 2048;
    spec.params = params(n, (n - 1) / 3);
    spec.topology.kind = net::TopologyKind::kRingOfCliques;
    spec.topology.clique_size = smoke ? 8 : 64;
    sim::NicConfig nic;
    nic.capacity = 0;  // unbounded queue
    nic.service_time = 50e-6;
    spec.nic = nic;
  } else if (name == "expander_gradient") {
    const std::int32_t n = smoke ? 64 : 4096;
    spec.params = params(n, 2);
    spec.topology.kind = net::TopologyKind::kKRegular;
    spec.topology.degree = 16;
    spec.topology.seed = seed;
    spec.fault = analysis::FaultKind::kTwoFaced;
    spec.fault_count = 2;
    spec.placement = proc::PlacementKind::kRandom;
    spec.measure_gradient = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return spec;
}

// --------------------------------------------------------------- runs ---

struct Run {
  double setup_s = 0.0;  ///< Experiment constructor
  double wall_s = 0.0;   ///< constructor through the returned RunResult
  std::optional<analysis::RunResult> result;  ///< empty when it threw
  std::string failure;                        ///< empty when it passed
};

std::string engine_name(const analysis::RunResult& r) {
  if (r.fastpath_engaged) return "fastpath";
  if (r.pdes_workers_used >= 2) return "pdes";
  return "event";
}

/// Why `r` fails the benchmark's correctness check, or "" when it passes.
std::string check(const analysis::RunResult& r, const analysis::RunSpec& spec,
                  const analysis::RunResult* reference) {
  if (r.gamma_measured > r.gamma_bound) return "gamma_measured > gamma_bound";
  if (!r.validity.holds) return "validity violated";
  if (r.diverged) return "diverged";
  if (r.completed_rounds < spec.rounds) return "completed_rounds < rounds";
  if (reference != nullptr && !analysis::results_identical(r, *reference)) {
    return "not results_identical to the first run";
  }
  return "";
}

Run timed_run(const analysis::RunSpec& spec,
              const analysis::RunResult* reference) {
  Run run;
  try {
    const auto t0 = Clock::now();
    analysis::Experiment exp(spec);
    const auto t1 = Clock::now();
    analysis::RunResult result = exp.run();
    const auto t2 = Clock::now();
    run.setup_s = seconds_between(t0, t1);
    run.wall_s = seconds_between(t0, t2);
    run.failure = check(result, spec, reference);
    run.result = std::move(result);
  } catch (const std::exception& e) {
    run.failure = std::string("threw: ") + e.what();
  }
  return run;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------- tracing ---

/// In-memory span recorder.  Times are seconds since construction.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };

  int open(std::string name, int parent) {
    return add(std::move(name), parent, now(), now());
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }
  int add(std::string name, int parent, double start, double end) {
    spans_.push_back({std::move(name), parent, start, end});
    return static_cast<int>(spans_.size()) - 1;
  }

  [[nodiscard]] const Span& span(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] double duration(int id) const {
    return span(id).end - span(id).start;
  }
  /// Duration minus the part of the span its children cover.
  [[nodiscard]] double self_time(int id) const {
    std::vector<std::pair<double, double>> kids;
    for (const Span& s : spans_) {
      if (s.parent == id) kids.emplace_back(s.start, s.end);
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = span(id).start;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, reach);
      if (b > lo) {
        covered += b - lo;
        reach = b;
      }
    }
    return duration(id) - covered;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  [[nodiscard]] double now() const { return seconds_between(origin_, Clock::now()); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ------------------------------------------------------------- metrics ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": " +
           json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

void print_metrics(const std::string& heading, const Metrics& metrics) {
  std::cout << "# " << heading << "\n";
  for (const Metric& m : metrics) {
    std::cout << "#   " << m.name << " = " << json_number(m.value) << ' '
              << m.unit << "\n";
  }
}

// ---------------------------------------------------------- host facts ---

/// The CPU set this process may run on, e.g. "0-3".
std::string cpu_set() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "?";
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    int last = cpu;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
    if (last > cpu) out += '-' + std::to_string(last);
    cpu = last;
  }
  return out;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// ---------------------------------------------------------------- main ---

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

int run_benchmark(const Args& args) {
  const analysis::RunSpec spec = make_spec(args.workload, args.seed, args.smoke);
  std::cout << "# workload " << args.workload << " seed " << args.seed
            << (args.smoke ? " (smoke)" : "") << ": n=" << spec.params.n
            << " rounds=" << spec.rounds << "\n";
  std::cout << "# host: nproc=" << std::thread::hardware_concurrency()
            << " cpus=" << cpu_set() << " compiler=" << compiler() << "\n";

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::set<std::pair<std::string, std::int32_t>> engines;
  std::vector<std::string> run_log;
  const auto record = [&](const Run& run, const char* kind) {
    ++attempted;
    std::ostringstream line;
    line << kind << " run " << attempted << ": ";
    if (run.result) {
      const analysis::RunResult& r = *run.result;
      engines.emplace(engine_name(r), r.pdes_workers_used);
      line << "engine=" << engine_name(r) << " workers=" << r.pdes_workers_used
           << " wall_s=" << json_number(run.wall_s)
           << " setup_s=" << json_number(run.setup_s)
           << " engine_s=" << json_number(r.engine_seconds);
    }
    if (!run.failure.empty()) {
      ++failed;
      line << " FAILED: " << run.failure;
    }
    std::cout << "# " << line.str() << "\n";
    run_log.push_back(line.str());
  };

  // 1. Reference run.
  const Run first = timed_run(spec, nullptr);
  record(first, "first");
  const analysis::RunResult* reference =
      first.result && first.failure.empty() ? &*first.result : nullptr;

  // 2. Timed runs, with 3. constructor-only runs spread over the same
  // window: after each timed run, enough of them to keep pace with
  // kSetupSamples over --seconds, then the rest at the end.
  std::vector<double> walls;
  std::vector<double> setups;
  const auto setup_only = [&] {
    const auto t0 = Clock::now();
    { analysis::Experiment exp(spec); }
    setups.push_back(seconds_between(t0, Clock::now()));
  };
  const auto start = Clock::now();
  for (int timed = 0;
       reference != nullptr &&
       (timed < kMinTimedRuns ||
        seconds_between(start, Clock::now()) < args.seconds);
       ++timed) {
    const Run run = timed_run(spec, reference);
    record(run, "timed");
    if (!run.result) continue;
    walls.push_back(run.wall_s);
    setups.push_back(run.setup_s);
    const double share =
        std::min(1.0, seconds_between(start, Clock::now()) / args.seconds);
    while (static_cast<double>(setups.size()) < kSetupSamples * share) {
      setup_only();
    }
  }
  while (reference != nullptr &&
         static_cast<int>(setups.size()) < kSetupSamples) {
    setup_only();
  }

  const double wall_median = median(walls);
  const Metrics end_to_end = {
      {"wall_s", wall_median, "s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  const double first_run_ratio =
      wall_median > 0.0 ? first.wall_s / wall_median : 0.0;
  if (engines.size() > 1) {
    std::cout << "# WARNING: engine choice drifted across runs:";
    for (const auto& [engine, workers] : engines) {
      std::cout << ' ' << engine << '/' << workers;
    }
    std::cout << "\n";
  }
  std::cout << "# timed runs: " << walls.size() << ", setup samples: "
            << setups.size() << ", first-run wall / median = "
            << json_number(first_run_ratio) << "\n";
  if (reference != nullptr) {
    std::cout << "# fastpath_refusal: " << json_string(reference->fastpath_refusal)
              << "\n# pdes_refusal: " << json_string(reference->pdes_refusal)
              << "\n";
  }

  Metrics per_layer;
  Tracer tracer;
  if (args.trace && reference != nullptr) {
    // 4. Traced run.  The engine span is reconstructed from
    // RunResult::engine_seconds (run() starts the engine clock after
    // attaching its observer, which this spec does not use), so it is
    // placed at the start of run().
    const core::Params& p = spec.params;
    const core::Derived d = core::derive(p);
    Run traced_run;
    int wall_id = tracer.open("wall", -1);
    int setup_id = -1;
    int run_id = -1;
    std::optional<analysis::Experiment> exp;
    try {
      setup_id = tracer.open("analysis.Experiment", wall_id);
      exp.emplace(spec);
      tracer.close(setup_id);
      run_id = tracer.open("analysis.run", wall_id);
      traced_run.result = exp->run();
      tracer.close(run_id);
      tracer.close(wall_id);
      traced_run.setup_s = tracer.duration(setup_id);
      traced_run.wall_s = tracer.duration(wall_id);
      traced_run.failure = check(*traced_run.result, spec, reference);
    } catch (const std::exception& e) {
      traced_run.failure = std::string("threw: ") + e.what();
    }
    record(traced_run, "traced");

    if (traced_run.result) {
      const analysis::RunResult& r = *traced_run.result;
      const double run_start = tracer.span(run_id).start;
      const int engine_id = tracer.add("analysis.engine", run_id, run_start,
                                       run_start + r.engine_seconds);

      // Replays of each layer's entry point on the finished run, with the
      // arguments run() used.  Not part of wall_s.
      sim::Simulator& sim = exp->simulator();
      const std::vector<std::int32_t>& honest = exp->honest();
      const std::int32_t last_round = exp->trace().last_complete_round(honest);
      double t_steady = exp->tmax0() + d.window;
      if (last_round >= 0) {
        const auto mid = exp->trace().begin_times(last_round / 2, honest);
        if (!mid.empty()) t_steady = *std::max_element(mid.begin(), mid.end());
      }
      const int replay_id = tracer.open("replay", -1);
      // One span under `replay` around `call`; returns its seconds.
      const auto replay = [&](const char* name, auto&& call) {
        const int id = tracer.open(name, replay_id);
        call();
        tracer.close(id);
        return tracer.duration(id);
      };
      net::Topology topo;
      const double build_topology_s = replay("net.build_topology", [&] {
        topo = net::build_topology(spec.topology, p.n);
      });
      double choose_s = 0.0;
      if (!r.fastpath_engaged) {
        // run() consults the auto-tuner only once the fast path declined.
        choose_s = replay("engine.choose_pdes_workers", [&] {
          (void)engine::choose_pdes_workers(topo, spec.seed);
        });
      }
      double partition_s = 0.0;
      net::Partition part;
      if (r.pdes_workers_used >= 2) {
        partition_s = replay("net.partition_topology", [&] {
          part = net::partition_topology(topo, r.pdes_workers_used, spec.seed);
        });
      }
      double gradient_s = 0.0;
      std::int64_t gradient_pairs = 0;
      if (spec.measure_gradient) {
        analysis::GradientSeries series;
        gradient_s = replay("analysis.gradient_series", [&] {
          series = analysis::gradient_series(sim, honest, topo, t_steady,
                                             r.t_end, p.P / 25.0);
        });
        for (const std::int64_t c : series.pair_count) gradient_pairs += c;
      }
      const double skew_s = replay("analysis.skew_series", [&] {
        (void)analysis::skew_series(sim, honest, t_steady, r.t_end, p.P / 25.0);
      });
      const double validity_s = replay("analysis.check_validity", [&] {
        (void)analysis::check_validity(sim, honest, p, exp->tmin0(),
                                       exp->tmax0(), exp->tmax0() + d.window,
                                       r.t_end, p.P / 10.0);
      });
      tracer.close(replay_id);

      const double traced_wall = tracer.duration(wall_id);
      const double events = static_cast<double>(sim.events_processed());
      const double queue_ops = static_cast<double>(sim.queue_ops());
      const double lane_epochs =
          static_cast<double>(r.pdes_epochs) * r.pdes_workers_used;
      const auto per = [](double x, double count) {
        return count > 0 ? x / count : 0.0;
      };
      per_layer = {
          {"analysis.experiment_s", tracer.self_time(setup_id), "s"},
          {"analysis.engine_s", tracer.self_time(engine_id), "s"},
          {"analysis.measure_s", tracer.self_time(run_id), "s"},
          {"analysis.measure_share", per(tracer.self_time(run_id), traced_wall), "ratio"},
          {"analysis.gradient_series_s", gradient_s, "s"},
          {"analysis.gradient_pairs", static_cast<double>(gradient_pairs), "count"},
          {"analysis.skew_series_s", skew_s, "s"},
          {"analysis.check_validity_s", validity_s, "s"},
          {"sim.events", events, "count"},
          {"sim.queue_ops", queue_ops, "count"},
          {"sim.peak_pending", static_cast<double>(sim.peak_pending()), "count"},
          {"sim.messages", static_cast<double>(sim.messages_sent()), "count"},
          {"sim.fanout_direct", static_cast<double>(sim.fanout_direct()), "count"},
          {"sim.ns_per_event", per(1e9 * r.engine_seconds, events), "ns"},
          {"sim.ns_per_queue_op", per(1e9 * r.engine_seconds, queue_ops), "ns"},
          {"sim.history_bytes", static_cast<double>(sim.history_bytes()), "bytes"},
          {"fastpath.engaged", r.fastpath_engaged ? 1.0 : 0.0, "bool"},
          {"fastpath.exchanges", static_cast<double>(r.fastpath_exchanges), "count"},
          {"fastpath.fast_count", static_cast<double>(r.fastpath_fast_count), "count"},
          {"fastpath.region_events", static_cast<double>(r.fastpath_region_events),
           "count"},
          {"fastpath.rearms", static_cast<double>(r.fastpath_rearms), "count"},
          {"pdes.workers_used", static_cast<double>(r.pdes_workers_used), "count"},
          {"pdes.epochs", static_cast<double>(r.pdes_epochs), "count"},
          {"pdes.stalls", static_cast<double>(r.pdes_stalls), "count"},
          {"pdes.stall_rate", per(static_cast<double>(r.pdes_stalls), lane_epochs), "ratio"},
          {"engine.choose_workers_s", choose_s, "s"},
          {"net.partition_s", partition_s, "s"},
          {"net.cut_edges", static_cast<double>(part.cut_edges.size()), "count"},
          {"net.build_topology_s", build_topology_s, "s"},
          {"net.edges", static_cast<double>(topo.edge_count()), "count"},
          {"trace.wall_s", traced_wall, "s"},
          {"trace.unattributed_s", tracer.self_time(wall_id), "s"},
          {"trace.overhead_s", traced_wall - wall_median, "s"},
          {"harness.first_run_ratio", first_run_ratio, "ratio"},
          {"harness.engine_variants", static_cast<double>(engines.size()), "count"},
      };
    }
  }

  const bool correct = failed == 0 && reference != nullptr;
  std::cout << "# attempted " << attempted << ", failed " << failed
            << ", fail_frac = "
            << json_number(static_cast<double>(failed) /
                           static_cast<double>(attempted))
            << "\n";
  print_metrics("end-to-end (untraced medians)", end_to_end);
  if (args.trace) print_metrics("per-layer (traced run)", per_layer);

  if (!args.spans_path.empty()) {
    std::ofstream out(args.spans_path);
    out << "{\"workload\": " << json_string(args.workload)
        << ", \"seed\": " << args.seed
        << ", \"smoke\": " << (args.smoke ? "true" : "false")
        << ", \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
        << ", \"cpus\": " << json_string(cpu_set())
        << ", \"compiler\": " << json_string(compiler()) << "}";
    if (reference != nullptr) {
      out << ", \"engine\": " << json_string(engine_name(*reference))
          << ", \"fastpath_refusal\": " << json_string(reference->fastpath_refusal)
          << ", \"pdes_refusal\": " << json_string(reference->pdes_refusal);
    }
    out << ", \"runs\": [";
    for (std::size_t i = 0; i < run_log.size(); ++i) {
      out << (i > 0 ? ", " : "") << json_string(run_log[i]);
    }
    out << "], \"end_to_end\": " << metrics_json(end_to_end)
        << ", \"per_layer\": " << metrics_json(per_layer) << ", \"spans\": [";
    const auto& spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const int id = static_cast<int>(i);
      out << (i > 0 ? ", " : "") << "{\"id\": " << id
          << ", \"name\": " << json_string(spans[i].name)
          << ", \"parent\": " << spans[i].parent
          << ", \"start_s\": " << json_number(spans[i].start)
          << ", \"end_s\": " << json_number(spans[i].end)
          << ", \"self_s\": " << json_number(tracer.self_time(id)) << "}";
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("cannot write " + args.spans_path);
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": "
            << metrics_json(args.trace ? per_layer : end_to_end) << "}"
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_benchmark(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
