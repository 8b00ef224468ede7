// The workloads and the layer probes of the repository benchmark.
// main.cpp dispatches on --workload and --trace; see README.md for what
// each workload measures and why it exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Threads the run may use, all capped by nproc and recorded in the stamp.
struct ThreadBudget {
  int nproc = 1;
  int serve_workers = 1;      ///< serve::Server workers
  int generator_threads = 1;  ///< client threads driving the server
  int lp_workers = 1;         ///< LP-engine workers (des-scale, sim probes)
  int study_threads = 1;      ///< Study / Optimize scoring threads
};
ThreadBudget thread_budget(int nproc);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string machines_dir;  ///< the repository's machines/ catalog
  std::string expected_des;  ///< recorded DES check values
  std::string trace_out;     ///< Chrome trace output path (traced runs)
  ThreadBudget threads;
};

/// The serve probe's request mix: the offered rate and the shares are
/// fixed here, never re-probed, and listed in README.md.
extern const ServeMixSpec kServeMixed;
/// Server cache capacity (total over shards), set explicitly so cache
/// generation resets depend on request counts, not on defaults.
constexpr std::size_t kServeCacheCapacity = 65536;

// ---- untraced runs: the end-to-end metrics ----------------------------

void run_design_study(const RunConfig& cfg, Report& out);
void run_des_scale(const RunConfig& cfg, Report& out);

// ---- traced runs: the per-layer metrics -------------------------------

/// Short open-loop socket phase plus an in-process span-traced replay of
/// the same request lines.
void probe_serve(const RunConfig& cfg, Tracer& tracer, Report& out);
void probe_core(Tracer& tracer, Report& out);
void probe_study(const RunConfig& cfg, bool own, Tracer& tracer, Report& out);
void probe_sim(const RunConfig& cfg, bool own, Tracer& tracer, Report& out);

/// Raw engine and MPI-protocol throughput (simulated events per host
/// second), for probe_sim.
double engine_chain_events_per_s(Tracer& tracer, Report& out);
double mpi_ring_events_per_s(int processors, Tracer& tracer, Report& out);

/// Prints the recorded DES check values of des-scale (expected_des.txt).
int record_des(const RunConfig& cfg);

/// Runs `pass` (which takes a Tracer& and returns its wall time) untraced
/// and traced, alternately, three times each, and sets trace.overhead_pct
/// from the two medians; alternating keeps warm-up out of the difference.
template <typename Pass>
void measure_overhead(Tracer& tracer, Report& out, Pass pass) {
  Tracer off(false);
  std::vector<double> untraced, traced;
  for (int round = 0; round < 3; ++round) {
    untraced.push_back(pass(off));
    traced.push_back(pass(tracer));
  }
  out.set("trace.overhead_pct", 100.0 * (median(traced) - median(untraced)) / median(untraced),
          "%");
}

}  // namespace perfbench
