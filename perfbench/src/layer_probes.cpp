// Layer probes timed from the benchmark's own code (no tracing inside the
// library): the analytic model's scalar and batch paths, the raw DES
// engine and the MPI protocol layer. Also the thread budget.
#include <algorithm>
#include <cmath>
#include <thread>

#include "bench.h"
#include "core/batch_solver.h"
#include "core/machine.h"
#include "core/solver.h"
#include "loggp/params.h"
#include "sim/engine.h"
#include "sim/mpi.h"
#include "sim/process.h"
#include "topology/grid.h"
#include "wave/context.h"
#include "workloads/workload.h"

namespace perfbench {

ThreadBudget thread_budget(int nproc) {
  ThreadBudget t;
  t.nproc = std::max(1, nproc);
  // Server workers plus generator threads (the open loop's sender and
  // receiver, or one thread doing both in turn) stay within nproc: 2 + 2
  // from 4 CPUs, 1 + 2 on 3, 1 + 1 on 2. One CPU cannot hold a server and
  // its client; main.cpp flags that run in its stamp.
  t.serve_workers = t.nproc >= 4 ? 2 : 1;
  t.generator_threads = t.nproc >= 3 ? 2 : 1;
  // LP workers and Study/Optimize threads leave half the CPUs free. The
  // LP engine meets at a barrier every window, so one descheduled worker
  // stalls them all: on a shared 4-vCPU host, one busy neighbour thread
  // made the des-scale LP set 3.2x slower at 4 workers and 1.1x at 2.
  t.lp_workers = std::clamp(t.nproc / 2, 1, 2);
  t.study_threads = std::clamp(t.nproc / 2, 1, 2);
  return t;
}

namespace {

const int kCoreProcessors[3] = {1024, 4096, 16384};

}  // namespace

void probe_core(Tracer& tracer, Report& out) {
  const Scope probe(tracer, "probe.core", 0);
  const wave::Context ctx;
  const wave::core::AppParams app = wave::workloads::WorkloadInputs::default_app();
  const wave::core::MachineConfig machine = wave::core::MachineConfig::xt4_dual_core();
  for (const int p : kCoreProcessors) {
    // About 50 ms of scalar work per processor count (~75 ns per cell).
    const int reps = std::max(9, static_cast<int>(50e-3 / (75e-9 * p)));
    const wave::topo::Grid grid = wave::topo::closest_to_square(p);
    std::vector<double> scalar_ns, batch_ns;
    double scalar_total = 0.0, batch_total = 0.0;
    for (int r = 0; r < reps; ++r) {
      const Scope span(tracer, "core.solver", static_cast<std::uint64_t>(p));
      const Clock::time_point t0 = Clock::now();
      const wave::core::Solver solver(app, machine, ctx.comm_model_registry());
      scalar_total = solver.evaluate(grid).iteration.total;
      scalar_ns.push_back(1e3 * us_between(t0, Clock::now()) / p);
    }
    wave::core::BatchScratch scratch;
    for (int r = 0; r < reps; ++r) {
      // One-shot: plan, intern the app and the machine, evaluate one point.
      const Scope span(tracer, "core.batch_eval", static_cast<std::uint64_t>(p));
      const Clock::time_point t0 = Clock::now();
      wave::core::BatchEval plan(ctx.comm_model_registry());
      wave::core::BatchPoint point;
      point.app = plan.add_app(app);
      point.machine = plan.add_machine(machine);
      point.grid = grid;
      wave::core::ModelResult res;
      plan.evaluate_point(point, scratch, res);
      batch_total = res.iteration.total;
      batch_ns.push_back(1e3 * us_between(t0, Clock::now()) / p);
    }
    ++out.attempted;
    if (scalar_total != batch_total || !(scalar_total > 0))
      out.fail("batch and scalar model differ at P=" + std::to_string(p));
    out.set("core.scalar_ns_per_cell.P" + std::to_string(p), median(scalar_ns), "ns");
    out.set("core.batch_ns_per_cell.P" + std::to_string(p), median(batch_ns), "ns");
  }
}

namespace {

/// One of 64 independent event chains on a raw engine; each event
/// schedules its successor a few simulated µs later.
struct Step {
  wave::sim::Engine* engine;
  std::uint64_t* left;
  int lane;
  void operator()() const {
    if (*left == 0) return;
    --*left;
    engine->after(1.0 + lane % 7, Step{engine, left, lane});
  }
};

wave::sim::Process ring_rank(wave::sim::RankCtx ctx, int rounds) {
  const int right = (ctx.rank() + 1) % ctx.size();
  const int left = (ctx.rank() + ctx.size() - 1) % ctx.size();
  for (int r = 0; r < rounds; ++r) {
    co_await ctx.compute(1.0);
    const wave::sim::Mpi::RequestHandle request = ctx.make_request();
    co_await ctx.isend(right, 1024, request);
    co_await ctx.recv(left);
    co_await ctx.wait(request);
  }
}

}  // namespace

double engine_chain_events_per_s(Tracer& tracer, Report& out) {
  const Scope span(tracer, "sim.engine_chain", 0);
  constexpr std::uint64_t kEvents = 2'000'000;
  wave::sim::Engine engine;
  std::uint64_t left = kEvents;
  for (int lane = 0; lane < 64; ++lane) engine.at(0.0, Step{&engine, &left, lane});
  const Clock::time_point t0 = Clock::now();
  engine.run();
  const double wall = seconds_since(t0);
  ++out.attempted;
  if (engine.events_processed() != kEvents + 64) out.fail("engine chain lost events");
  return static_cast<double>(engine.events_processed()) / wall;
}

double mpi_ring_events_per_s(int processors, Tracer& tracer, Report& out) {
  const Scope span(tracer, "sim.mpi_ring", static_cast<std::uint64_t>(processors));
  std::vector<int> node_of_rank(static_cast<std::size_t>(processors));
  for (int r = 0; r < processors; ++r) node_of_rank[static_cast<std::size_t>(r)] = r / 2;
  wave::sim::World world(wave::loggp::xt4(), std::move(node_of_rank));
  for (int r = 0; r < processors; ++r) world.spawn("ring", ring_rank(world.ctx(r), 8), r);
  const Clock::time_point t0 = Clock::now();
  world.run();
  const double wall = seconds_since(t0);
  ++out.attempted;
  if (world.messages_delivered() != static_cast<std::uint64_t>(processors) * 8)
    out.fail("mpi ring delivered " + std::to_string(world.messages_delivered()) + " messages");
  return static_cast<double>(world.events_processed()) / wall;
}

}  // namespace perfbench
