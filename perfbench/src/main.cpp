// perfbench: the repository benchmark binary. run.py builds it and calls
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --machines DIR --expected FILE --commit ID --trace-out FILE
//
// It prints a stamp line, a details line, and as its last line the result
// JSON: {"correct":..,"attempted":..,"failed":..,"metrics":{..}} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace perfbench;

const char* const kWorkloadNames[2] = {"design-study", "des-scale"};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload {design-study|des-scale}"
               " --seed N --seconds S --trace 0|1 --machines DIR --expected FILE"
               " [--commit ID] [--trace-out FILE]\n"
               "       %s --record-des\n",
               argv0, argv0);
  return 2;
}

int online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::vector<std::pair<std::string, std::string>> stamp(const RunConfig& cfg,
                                                       const std::string& commit) {
  const ThreadBudget& t = cfg.threads;
  return {
      {"workload", cfg.workload},
      {"seed", std::to_string(cfg.seed)},
      {"seconds", number(cfg.seconds)},
      {"trace", cfg.trace ? "1" : "0"},
      {"nproc", std::to_string(t.nproc)},
      {"compiler", std::string(
#if defined(__clang__)
                       "clang "
#elif defined(__GNUC__)
                       "g++ "
#endif
                       ) + __VERSION__},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"cxx_flags", PERFBENCH_CXX_FLAGS},
      {"commit", commit},
      {"serve_workers", std::to_string(t.serve_workers)},
      {"generator_threads", std::to_string(t.generator_threads)},
      {"lp_workers", std::to_string(t.lp_workers)},
      {"study_threads", std::to_string(t.study_threads)},
      // Besides its workers the server runs an accept thread, a watchdog
      // and one reader per connection; they sleep unless a socket is busy.
      {"server_other_threads", "accept + watchdog + 1 reader per connection"},
      {"threads_within_nproc",
       t.serve_workers + t.generator_threads <= t.nproc ? "true" : "false"},
  };
}

/// CPU time stolen by the hypervisor for other guests, and all CPU time,
/// in /proc/stat ticks: {steal, total}; {0, 0} where the file is missing.
std::pair<double, double> steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0.0, total = 0.0, steal = 0.0;
  in >> cpu;
  for (int i = 0; i < 8 && (in >> field); ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.threads = thread_budget(online_cpus());
  std::string commit = "unknown";
  bool record = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") cfg.workload = value();
      else if (arg == "--seed") cfg.seed = std::stoull(value());
      else if (arg == "--seconds") cfg.seconds = std::stod(value());
      else if (arg == "--trace") cfg.trace = value() == "1";
      else if (arg == "--machines") cfg.machines_dir = value();
      else if (arg == "--expected") cfg.expected_des = value();
      else if (arg == "--commit") commit = value();
      else if (arg == "--trace-out") cfg.trace_out = value();
      else if (arg == "--record-des") record = true;
      else return usage(argv[0]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return usage(argv[0]);
    }
  }
  if (record) return record_des(cfg);
  if (std::find(std::begin(kWorkloadNames), std::end(kWorkloadNames), cfg.workload) ==
          std::end(kWorkloadNames) ||
      cfg.machines_dir.empty() || cfg.expected_des.empty() || !(cfg.seconds > 0))
    return usage(argv[0]);

  const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
  if (!release)
    std::fprintf(stderr,
                 "perfbench: WARNING: this is a %s build, not Release -- its timings are "
                 "not comparable with any other run\n",
                 PERFBENCH_BUILD_TYPE);
  if (cfg.trace && cfg.threads.serve_workers + cfg.threads.generator_threads > cfg.threads.nproc)
    std::fprintf(stderr,
                 "perfbench: WARNING: %d CPU: the serve probe's server worker and its "
                 "client share it\n",
                 cfg.threads.nproc);

  Report report;
  const auto stamp_fields = stamp(cfg, commit);
  const auto [steal0, total0] = steal_ticks();
  try {
    if (!cfg.trace) {
      if (cfg.workload == "design-study") run_design_study(cfg, report);
      else run_des_scale(cfg, report);
    } else {
      // Every traced run measures every layer; the run's own workload also
      // gets its untraced-vs-traced overhead and the fine-grained spans.
      Tracer tracer(true);
      probe_serve(cfg, tracer, report);
      probe_core(tracer, report);
      probe_study(cfg, cfg.workload == "design-study", tracer, report);
      probe_sim(cfg, cfg.workload == "des-scale", tracer, report);
      report.set("trace.spans", static_cast<double>(tracer.spans().size()), "count");
      if (!cfg.trace_out.empty()) {
        std::ofstream out(cfg.trace_out);
        tracer.write_chrome_trace(out, stamp_fields);
        if (!out) report.fail("cannot write " + cfg.trace_out);
      }
    }
  } catch (const std::exception& e) {
    report.fail(std::string("run aborted: ") + e.what());
  }
  // The share of this machine's CPU time the hypervisor gave to other
  // guests while the run went on: when it is high, the figures of this run
  // were slowed from outside.
  const auto [steal1, total1] = steal_ticks();
  if (total1 > total0)
    report.detail("host.steal_pct", 100.0 * (steal1 - steal0) / (total1 - total0), "%");

  std::string line = "perfbench: stamp {";
  for (std::size_t i = 0; i < stamp_fields.size(); ++i) {
    if (i != 0) line += ',';
    line += json_quote(stamp_fields[i].first);
    line += ':';
    line += json_quote(stamp_fields[i].second);
  }
  line += std::string(",\"release\":") + (release ? "true" : "false") + "}";
  std::printf("%s\n", line.c_str());
  std::printf("perfbench: details %s\n", report.details_json().c_str());
  for (const std::string& note : report.notes)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", note.c_str());
  std::printf("%s\n", report.json().c_str());
  return report.correct ? 0 : 1;
}
