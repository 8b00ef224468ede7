// design-study and des-scale: the library paths a designer calls
// (wave::Study, wave::Optimize, wave::Query on the Simulation engine),
// plus their traced probes.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "core/machine.h"
#include "obs/metrics.h"
#include "topology/grid.h"
#include "wave/context.h"
#include "wave/metrics.h"
#include "workloads/registry.h"
#include "workloads/workload.h"

namespace perfbench {

namespace {

// ---- shared set-up ----------------------------------------------------

// Set-up here is sub-millisecond, so it is repeated in batches: one
// before the work, then one after every repetition of it. The shared host
// switches every few seconds between a fast and a slow state (a plain ALU
// loop: about 25 us vs 35 us), and a set-up takes about 65 us in one and
// 105 us in the other. A median over single set-ups snaps to whichever
// state held the run's majority, so setup_s is the median over a batch's
// positions of each position's mean across the run: every mean spans the
// run's states, and the median drops the first, cold set-up of a batch.
constexpr int kSetupBatch = 20;

/// Context construction + catalog load, the set-up a user pays.
class SetupTimer {
 public:
  explicit SetupTimer(const RunConfig& cfg) : cfg_(cfg), by_position_(kSetupBatch) {}

  /// Times one batch of set-ups; returns the last context.
  std::unique_ptr<wave::Context> batch() {
    std::unique_ptr<wave::Context> ctx;
    for (std::vector<double>& samples : by_position_) {
      ctx.reset();
      const Clock::time_point t0 = Clock::now();
      ctx = std::make_unique<wave::Context>();
      const wave::Status loaded = ctx->add_machine_dir(cfg_.machines_dir);
      samples.push_back(seconds_since(t0));
      if (!loaded.is_ok()) throw std::runtime_error("catalog load: " + loaded.to_string());
    }
    return ctx;
  }

  void report(Report& out) const {
    std::vector<double> means;
    for (const std::vector<double>& samples : by_position_) means.push_back(mean(samples));
    out.set("setup_s", median(means), "s");
    out.detail("setup.samples",
               static_cast<double>(by_position_.size() * by_position_.front().size()), "count");
  }

 private:
  const RunConfig& cfg_;
  std::vector<std::vector<double>> by_position_;  ///< [position in batch][batch]
};

// ---- design-study -----------------------------------------------------

const std::vector<std::string> kStudyMachines = {"xt4-dual", "xt4-single", "sp2"};
const std::vector<std::string> kStudyWorkloads = {"wavefront", "sweep3d-hybrid"};
constexpr int kStudyProcessorStrata = 256;

/// 256 processor counts, one drawn by seed from each equal stratum of
/// [1024, 16384], so the sweep's cost does not drift with the seed.
std::vector<int> study_processors(std::uint64_t seed) {
  Rng rng(seed ^ 0x57D1ull);
  const double stratum = (16384.0 - 1024.0) / kStudyProcessorStrata;
  std::vector<int> ps;
  for (int k = 0; k < kStudyProcessorStrata; ++k)
    ps.push_back(1024 + static_cast<int>(stratum * (k + rng.unit())));
  return ps;
}

wave::Study make_study(const wave::Context& ctx, const std::vector<int>& ps,
                       const RunConfig& cfg) {
  wave::Study study = ctx.study();
  study.workloads(kStudyWorkloads)
      .machines(kStudyMachines)
      .processors(ps)
      .threads(cfg.threads.study_threads)
      .seed(cfg.seed);
  return study;
}

const wave::Objective kObjectives[3] = {wave::Objective::MinTime,
                                        wave::Objective::MinNodeHours,
                                        wave::Objective::MaxEfficiency};

wave::Optimize make_optimize(const wave::Context& ctx, wave::Objective objective,
                             const RunConfig& cfg) {
  wave::Optimize opt = ctx.optimize();
  opt.workload("wavefront")
      .machines(kStudyMachines)
      .processors({1024, 2048})
      .htiles({1, 2, 4, 8})
      .objective(objective)
      .threads(cfg.threads.study_threads)
      .seed(cfg.seed);
  return opt;
}

/// Byte-stable rendering of a recommendation list (the determinism check).
std::string render(const std::vector<wave::Recommendation>& recs) {
  std::string out;
  for (const wave::Recommendation& r : recs) {
    out += r.machine + " " + r.comm_model + " " + std::to_string(r.grid_columns) + "x" +
           std::to_string(r.grid_rows) + " " + std::to_string(r.ranks);
    for (const double v : {r.htile, r.pz, r.angle_blocks, r.model_us, r.objective_value,
                           r.sim_us, r.sim_objective_value, r.divergence_pct}) {
      out += ' ';
      out += number(v);
    }
    out += r.simulated ? " sim" : " model";
    out += r.within_tolerance ? " in\n" : " out\n";
  }
  return out;
}

std::string render(const wave::OptimizeResult& r) {
  return "ranking\n" + render(r.ranking) + "finalists\n" + render(r.finalists);
}

/// Checks sampled study rows against single Query evaluations: the batch
/// route must give the scalar model's bytes.
void check_study_rows(const wave::Context& ctx, const wave::StudyResult& result,
                      const std::vector<int>& ps, std::uint64_t seed, Report& out) {
  const std::size_t expected =
      kStudyWorkloads.size() * kStudyMachines.size() * ps.size();
  if (result.rows.size() != expected) {
    out.fail("study returned " + std::to_string(result.rows.size()) + " rows, expected " +
             std::to_string(expected));
    return;
  }
  Rng rng(seed ^ 0xC4ECull);
  for (int k = 0; k < 16; ++k) {
    const wave::StudyRow& row = result.rows[rng.below(result.rows.size())];
    const std::size_t p = row.index % ps.size();
    const std::size_t m = row.index / ps.size() % kStudyMachines.size();
    const std::size_t w = row.index / ps.size() / kStudyMachines.size();
    ++out.attempted;
    const wave::Expected<wave::Result> q = ctx.query()
                                               .workload(kStudyWorkloads[w])
                                               .machine(kStudyMachines[m])
                                               .processors(ps[p])
                                               .run();
    if (!q.ok() || row.metrics.empty() || row.metrics.front().second != q.value().time_us)
      out.fail("study row " + std::to_string(row.index) + " differs from Query::run");
  }
}

// ---- des-scale --------------------------------------------------------

struct DesScenario {
  const char* workload;
  int processors;
};
const DesScenario kDesScenarios[6] = {
    {"wavefront", 1024},      {"wavefront", 2048}, {"sweep3d-hybrid", 1024},
    {"sweep3d-hybrid", 2048}, {"halo2d", 1024},    {"halo2d", 2048}};

/// One recorded check value: simulated time and events (serial/lp), or
/// the model-vs-DES divergence (validate).
struct DesExpected {
  std::string family, workload;
  int processors = 0;
  double value = 0.0;
  double events = 0.0;
};

std::vector<DesExpected> load_expected(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<DesExpected> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    DesExpected e;
    if (!(fields >> e.family >> e.workload >> e.processors >> e.value >> e.events))
      throw std::runtime_error("malformed line in " + path + ": " + line);
    rows.push_back(e);
  }
  return rows;
}

const DesExpected* find_expected(const std::vector<DesExpected>& rows, const std::string& family,
                                 const DesScenario& s) {
  for (const DesExpected& e : rows)
    if (e.family == family && e.workload == s.workload && e.processors == s.processors)
      return &e;
  return nullptr;
}

struct SimRun {
  double wall_s = 0.0;
  double time_us = 0.0;
  double events = 0.0;
};

SimRun simulate(const wave::Context& ctx, const DesScenario& s, int sim_threads,
                Tracer& tracer, std::uint64_t request) {
  const Scope span(tracer, sim_threads == 0 ? "des.query.serial" : "des.query.lp", request);
  const Clock::time_point t0 = Clock::now();
  const wave::Expected<wave::Result> r = ctx.query()
                                             .workload(s.workload)
                                             .processors(s.processors)
                                             .engine(wave::Engine::Simulation)
                                             .sim_threads(sim_threads)
                                             .run();
  SimRun run;
  run.wall_s = seconds_since(t0);
  if (!r.ok()) throw std::runtime_error(r.status().to_string());
  run.time_us = r.value().time_us;
  run.events = r.value().term_or("sim_events", -1.0);
  return run;
}

void check_sim(const std::vector<DesExpected>& expected, const char* family,
               const DesScenario& s, const SimRun& run, Report& out) {
  ++out.attempted;
  const DesExpected* e = find_expected(expected, family, s);
  if (e == nullptr) {
    out.fail(std::string("no recorded ") + family + " value for " + s.workload);
  } else if (e->value != run.time_us || e->events != run.events) {
    out.fail(std::string(family) + " " + s.workload + " P=" + std::to_string(s.processors) +
             ": time_us " + number(run.time_us) + " events " + number(run.events) +
             ", recorded " + number(e->value) + " / " + number(e->events));
  }
}

/// The seeded order in which a run visits the scenarios.
std::vector<DesScenario> des_order(std::uint64_t seed) {
  std::vector<DesScenario> order(std::begin(kDesScenarios), std::end(kDesScenarios));
  Rng rng(seed ^ 0xDE5ull);
  for (std::size_t i = order.size() - 1; i > 0; --i)
    std::swap(order[i], order[rng.below(i + 1)]);
  return order;
}

double validate_divergence(const wave::Context& ctx, const DesScenario& s) {
  const wave::Expected<wave::Result> r =
      ctx.query().workload(s.workload).processors(s.processors).validate().run();
  if (!r.ok()) throw std::runtime_error(r.status().to_string());
  return r.value().divergence_pct;
}

}  // namespace

void run_design_study(const RunConfig& cfg, Report& out) {
  SetupTimer setup(cfg);
  const std::unique_ptr<wave::Context> ctx = setup.batch();
  const std::vector<int> ps = study_processors(cfg.seed);

  std::vector<double> points_per_s, optimize_us, study_s;
  std::vector<double> objective_us[3];
  std::string first_csv;
  std::string first_render[3];
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep == 0 || seconds_since(start) < cfg.seconds; ++rep) {
    const Clock::time_point t0 = Clock::now();
    const wave::Expected<wave::StudyResult> study = make_study(*ctx, ps, cfg).run();
    const double wall = seconds_since(t0);
    if (!study.ok()) {
      out.fail("study: " + study.status().to_string());
      break;
    }
    out.attempted += study.value().rows.size();
    study_s.push_back(wall);
    points_per_s.push_back(static_cast<double>(study.value().rows.size()) / wall);
    const std::string csv = study.value().csv();
    if (rep == 0) {
      first_csv = csv;
      check_study_rows(*ctx, study.value(), ps, cfg.seed, out);
    } else if (csv != first_csv) {
      out.fail("study rows differ between repetitions of one seed");
    }

    for (int o = 0; o < 3; ++o) {
      const Clock::time_point t1 = Clock::now();
      const wave::Expected<wave::OptimizeResult> r = make_optimize(*ctx, kObjectives[o], cfg).run();
      const double us = us_between(t1, Clock::now());
      ++out.attempted;
      if (!r.ok() || r.value().ranking.empty() || r.value().finalists.empty()) {
        out.fail("optimize: " + (r.ok() ? std::string("empty result") : r.status().to_string()));
        continue;
      }
      optimize_us.push_back(us);
      objective_us[o].push_back(us);
      const std::string text = render(r.value());
      if (rep == 0) {
        first_render[o] = text;
      } else if (text != first_render[o]) {
        out.fail("optimize " + wave::to_string(kObjectives[o]) +
                 ": ranking or finalists differ between repetitions of one seed");
      }
    }
    setup.batch();
  }
  setup.report(out);
  if (points_per_s.empty() || optimize_us.empty()) throw std::runtime_error("design-study ran nothing");
  out.set("throughput_per_s", median(points_per_s), "1/s");
  // Each objective re-ranks its own finalists, so one recommendation costs
  // about 0.35 s for two objectives and 0.8 s for the third, and a median
  // over all of them falls where two overlap. Latency is the mean of the
  // objectives' medians instead.
  double p50 = 0.0;
  for (int o = 0; o < 3; ++o) {
    const std::string name = wave::to_string(kObjectives[o]);
    if (objective_us[o].empty()) throw std::runtime_error("design-study ran no " + name);
    p50 += median(objective_us[o]) / 3.0;
    out.detail("optimize_wall_p50_s." + name, median(objective_us[o]) * 1e-6, "s");
  }
  out.set("latency_p50_us", p50, "us");
  out.detail("study_points_per_s", median(points_per_s), "1/s");
  out.detail("optimize_wall_s", p50 * 1e-6, "s");
  out.detail("optimize_wall_p90_s", percentile(optimize_us, 90.0) * 1e-6, "s");
  out.detail("study.points", static_cast<double>(kStudyWorkloads.size() * kStudyMachines.size() * ps.size()), "count");
  out.detail("study.repetitions", static_cast<double>(study_s.size()), "count");
  out.detail("optimize.recommendations", static_cast<double>(optimize_us.size()), "count");
}

void run_des_scale(const RunConfig& cfg, Report& out) {
  SetupTimer setup(cfg);
  const std::unique_ptr<wave::Context> ctx = setup.batch();
  const std::vector<DesExpected> expected = load_expected(cfg.expected_des);
  const std::vector<DesScenario> order = des_order(cfg.seed);
  Tracer off(false);

  // Model-vs-DES divergence, once per run, checked against the recorded
  // values (breaches of a workload's tolerance are kept and reported).
  for (const DesScenario& s : order) {
    ++out.attempted;
    const double div = validate_divergence(*ctx, s);
    const DesExpected* e = find_expected(expected, "validate", s);
    if (e == nullptr || e->value != div)
      out.fail(std::string("divergence of ") + s.workload + " P=" + std::to_string(s.processors) +
               " is " + number(div) + ", recorded " + (e ? number(e->value) : "nothing"));
    out.detail(std::string("divergence_pct.") + s.workload + ".P" + std::to_string(s.processors),
               div, "%");
  }

  // Every query is one sample: each scenario's host time on each engine is
  // the median over the repetitions, so a slow query moves its own sample,
  // not a whole repetition's figure. The first repetition warms the
  // allocator and the caches; it is checked but not timed.
  const std::size_t n = order.size();
  std::vector<std::vector<double>> serial_s(n), lp_s(n);
  std::vector<double> events(n, 0.0);
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < 2 || seconds_since(start) < cfg.seconds; ++rep) {
    for (std::size_t k = 0; k < n; ++k) {
      const SimRun run = simulate(*ctx, order[k], 0, off, 0);
      check_sim(expected, "serial", order[k], run, out);
      if (rep > 0) serial_s[k].push_back(run.wall_s);
      events[k] = run.events;
    }
    for (std::size_t k = 0; k < n; ++k) {
      const SimRun run = simulate(*ctx, order[k], cfg.threads.lp_workers, off, 0);
      check_sim(expected, "lp", order[k], run, out);
      if (rep > 0) lp_s[k].push_back(run.wall_s);
    }
    setup.batch();
  }
  setup.report(out);
  double all_events = 0.0, serial_total = 0.0, lp_total = 0.0;
  std::vector<double> serial_query_us;
  for (std::size_t k = 0; k < n; ++k) {
    all_events += events[k];
    serial_total += median(serial_s[k]);
    lp_total += median(lp_s[k]);
    serial_query_us.push_back(median(serial_s[k]) * 1e6);
    out.detail(std::string("des.serial_query_us.") + order[k].workload + ".P" +
                   std::to_string(order[k].processors),
               serial_query_us.back(), "us");
  }
  // Throughput is the LP engine's rate over the whole set, the engine to
  // use when wall time matters. Latency is the p50 over the six scenarios
  // of one serial-engine Query's host time.
  out.set("throughput_per_s", all_events / lp_total, "1/s");
  out.set("latency_p50_us", median(serial_query_us), "us");
  out.detail("des_events_per_s", all_events / serial_total, "1/s");
  out.detail("des_lp_events_per_s", all_events / lp_total, "1/s");
  out.detail("des.repetitions", static_cast<double>(serial_s.front().size()), "count");
}

int record_des(const RunConfig& cfg) {
  wave::Context ctx;
  Tracer off(false);
  std::printf("# Recorded check values of the des-scale workload (machine xt4-dual),\n"
              "# printed by `perfbench --record-des`. The DES is deterministic, so the\n"
              "# values hold on any host; serial and LP may differ on exact-time ties.\n"
              "# serial/lp: family workload processors time_us events\n"
              "# validate:  validate workload processors divergence_pct 0\n");
  for (const DesScenario& s : kDesScenarios) {
    const SimRun serial = simulate(ctx, s, 0, off, 0);
    const SimRun lp = simulate(ctx, s, cfg.threads.lp_workers, off, 0);
    std::printf("serial %s %d %s %s\n", s.workload, s.processors, number(serial.time_us).c_str(),
                number(serial.events).c_str());
    std::printf("lp %s %d %s %s\n", s.workload, s.processors, number(lp.time_us).c_str(),
                number(lp.events).c_str());
    std::printf("validate %s %d %s 0\n", s.workload, s.processors,
                number(validate_divergence(ctx, s)).c_str());
  }
  return 0;
}

// ---- traced probes ----------------------------------------------------

namespace {

/// One Study plus one full Optimize (MinTime): the design-study unit.
double design_pass(const wave::Context& ctx, const std::vector<int>& ps, const RunConfig& cfg,
                   Tracer& tracer, Report& out, double& study_s) {
  const Clock::time_point t0 = Clock::now();
  {
    const Scope span(tracer, "runner.study", 0);
    const Clock::time_point t1 = Clock::now();
    const wave::Expected<wave::StudyResult> study = make_study(ctx, ps, cfg).run();
    study_s = seconds_since(t1);
    ++out.attempted;
    if (!study.ok()) out.fail("study: " + study.status().to_string());
  }
  {
    const Scope span(tracer, "optimize.run", 0);
    const wave::Expected<wave::OptimizeResult> r =
        make_optimize(ctx, wave::Objective::MinTime, cfg).run();
    ++out.attempted;
    if (!r.ok() || r.value().finalists.empty()) out.fail("optimize failed");
  }
  return seconds_since(t0);
}

}  // namespace

void probe_study(const RunConfig& cfg, bool own, Tracer& tracer, Report& out) {
  const Scope probe(tracer, "probe.study", 0);
  wave::Context ctx;
  const wave::Status loaded = ctx.add_machine_dir(cfg.machines_dir);
  if (!loaded.is_ok()) throw std::runtime_error("catalog load: " + loaded.to_string());
  const std::vector<int> ps = study_processors(cfg.seed);

  double study_s = 0.0;
  const auto pass = [&](Tracer& t) { return design_pass(ctx, ps, cfg, t, out, study_s); };
  if (own) {
    measure_overhead(tracer, out, pass);
  } else {
    pass(tracer);
  }
  out.set("runner.study_s", study_s, "s");

  // The same search without the DES re-rank: the scoring share.
  wave::Optimize search = make_optimize(ctx, wave::Objective::MinTime, cfg);
  search.top_k(0);
  Clock::time_point t0 = Clock::now();
  wave::Expected<wave::OptimizeResult> scored = wave::Status::internal("not run");
  {
    const Scope span(tracer, "optimize.search", 0);
    scored = search.run();
  }
  const double search_s = seconds_since(t0);
  t0 = Clock::now();
  wave::Expected<wave::OptimizeResult> full = wave::Status::internal("not run");
  {
    const Scope span(tracer, "optimize.run", 0);
    full = make_optimize(ctx, wave::Objective::MinTime, cfg).run();
  }
  const double full_s = seconds_since(t0);
  out.attempted += 2;
  if (!scored.ok() || !full.ok()) {
    out.fail("optimize probe failed");
    return;
  }
  if (render(scored.value().ranking) != render(full.value().ranking))
    out.fail("optimize ranking depends on the re-rank");
  out.set("optimize.search_s", search_s, "s");
  out.set("optimize.rerank_s", full_s - search_s, "s");
  out.set("optimize.evaluated", static_cast<double>(full.value().evaluated), "count");
}

namespace {

/// Calls workload->simulate directly (the workloads layer), optionally on
/// the LP engine with an observability registry attached.
wave::workloads::SimOutput simulate_layer(const wave::Context& ctx, const std::string& name,
                                          int processors, int lp_workers,
                                          wave::obs::MetricsRegistry* registry) {
  const auto workload = wave::workloads::get_workload(ctx.workload_registry(), name);
  wave::workloads::WorkloadInputs in;
  in.grid = wave::topo::closest_to_square(processors);
  in.parallel.threads = lp_workers;
  in.parallel.metrics = registry;
  return workload->simulate(ctx.resolve_machine("xt4-dual"), ctx.comm_model_registry(), in);
}

/// The des-scale unit for the overhead figure: every workload at P=1024 on
/// both engines, checked against the recorded values.
double des_pass(const wave::Context& ctx, const RunConfig& cfg,
                const std::vector<DesExpected>& expected, Tracer& tracer, Report& out) {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t request = 0;
  for (const DesScenario& s : des_order(cfg.seed)) {
    if (s.processors != 1024) continue;
    check_sim(expected, "serial", s, simulate(ctx, s, 0, tracer, ++request), out);
    check_sim(expected, "lp", s, simulate(ctx, s, cfg.threads.lp_workers, tracer, ++request), out);
  }
  return seconds_since(t0);
}

}  // namespace

void probe_sim(const RunConfig& cfg, bool own, Tracer& tracer, Report& out) {
  const Scope probe(tracer, "probe.sim", 0);
  const wave::Context ctx;
  out.set("sim.engine_events_per_s", engine_chain_events_per_s(tracer, out), "1/s");
  for (const int p : {1024, 2048, 4096})
    out.set("sim.mpi_events_per_s.P" + std::to_string(p), mpi_ring_events_per_s(p, tracer, out),
            "1/s");

  std::map<std::string, std::pair<double, double>> serial;  // wall, events
  for (const char* name : {"wavefront", "sweep3d-hybrid", "halo2d"}) {
    for (const int p : {1024, 2048, 4096}) {
      const std::string suffix = ".P" + std::to_string(p);
      const Scope span(tracer, "workloads.simulate.serial", static_cast<std::uint64_t>(p));
      const Clock::time_point t0 = Clock::now();
      const wave::workloads::SimOutput sim = simulate_layer(ctx, name, p, 0, nullptr);
      const double wall = seconds_since(t0);
      const double events = static_cast<double>(sim.events);
      ++out.attempted;
      if (events <= 0) out.fail(std::string(name) + suffix + " simulated no events");
      serial[name + suffix] = {wall, events};
      out.set(std::string("workloads.") + name + ".events_per_s" + suffix, events / wall, "1/s");
      out.set(std::string("workloads.") + name + ".events" + suffix, events, "count");
    }
  }

  wave::obs::MetricsRegistry registry;
  int lp_runs = 0;
  for (const char* name : {"wavefront", "sweep3d-hybrid", "halo2d"}) {
    for (const int p : {1024, 2048}) {
      const std::string suffix = ".P" + std::to_string(p);
      const Scope span(tracer, "workloads.simulate.lp", static_cast<std::uint64_t>(p));
      const Clock::time_point t0 = Clock::now();
      const wave::workloads::SimOutput sim =
          simulate_layer(ctx, name, p, cfg.threads.lp_workers, &registry);
      const double wall = seconds_since(t0);
      ++lp_runs;
      ++out.attempted;
      const auto& [serial_wall, serial_events] = serial[name + suffix];
      if (static_cast<double>(sim.events) != serial_events)
        out.fail(std::string(name) + suffix + ": LP and serial engines count different events");
      out.set(std::string("sim.lp_speedup.") + name + suffix, serial_wall / wall, "ratio");
    }
  }
  const wave::MetricsSnapshot snap = registry.snapshot();
  double rounds = 0.0, barrier_us = 0.0;
  for (const auto& c : snap.counters)
    if (c.name == "sim_window_rounds_total") rounds = static_cast<double>(c.value);
  for (const auto& h : snap.histograms)
    if (h.name == "sim_barrier_wait_us") barrier_us = h.sum;
  out.set("sim.window_rounds", rounds / lp_runs, "count");
  out.set("sim.barrier_wait_us", barrier_us / lp_runs, "us");

  if (own) {
    const std::vector<DesExpected> expected = load_expected(cfg.expected_des);
    measure_overhead(tracer, out,
                     [&](Tracer& t) { return des_pass(ctx, cfg, expected, t, out); });
  }
}

}  // namespace perfbench
