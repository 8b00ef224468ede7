// Self-test of the benchmark's own code; run.py runs it after every build.
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "harness.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

}  // namespace

int main() {
  using namespace perfbench;

  // ---- the percentile rule ----
  expect(highest_supported_percentile(99) == 50.0, "99 samples support no tail");
  expect(highest_supported_percentile(100) == 90.0, "100 samples support p90");
  expect(highest_supported_percentile(999) == 90.0, "999 samples support p90 only");
  expect(highest_supported_percentile(1000) == 99.0, "1000 samples support p99");
  expect(highest_supported_percentile(10000) == 99.9, "10000 samples support p99.9");
  expect(highest_supported_percentile(100000) == 99.99, "100000 samples support p99.99");
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(101 - i);
  expect(percentile(xs, 50) == 50.0, "nearest-rank p50 of 1..100");
  expect(percentile(xs, 90) == 90.0, "nearest-rank p90 of 1..100");
  expect(percentile(xs, 99) == 99.0, "nearest-rank p99 of 1..100");
  expect(percentile(xs, 100) == 100.0, "p100 is the maximum");
  expect(median({3, 1, 2}) == 2.0, "odd median");
  expect(median({4, 1, 2, 3}) == 2.5, "even median");
  expect(mean({4, 1, 2, 5}) == 3.0, "mean");
  std::vector<double> with_inf = {1, 2, INFINITY};
  expect(std::isinf(percentile(with_inf, 90)), "a failed request misses the tail");

  // ---- span self time ----
  std::vector<Span> spans(5);
  spans[0] = {"root", 1, -1, 0, 10};
  spans[1] = {"a", 1, 0, 1, 3};
  spans[2] = {"b", 1, 0, 2, 5};  // overlaps a: covered once
  spans[3] = {"c", 1, 0, 9, 12};  // clipped to the parent at 10
  spans[4] = {"d", 1, 2, 3, 4};   // grandchild: only b's self time drops
  const std::vector<double> self = self_times_us(spans);
  expect(self[0] == 10 - (4 + 1), "root self = 10 - union(1..5, 9..10)");
  expect(self[1] == 2, "leaf self = its duration");
  expect(self[2] == 2, "b self = 3 - grandchild 1");
  expect(self[4] == 1, "grandchild self");
  Tracer tracer(true);
  {
    const Scope outer(tracer, "outer", 7);
    const Scope inner(tracer, "inner", 7);
  }
  expect(tracer.spans().size() == 2 && tracer.spans()[1].parent == 0 &&
             tracer.spans()[1].request == 7,
         "scopes nest and share the request id");
  Tracer off(false);
  { const Scope s(off, "x", 1); }
  expect(off.spans().empty(), "a disabled tracer records nothing");

  // ---- metric-name grammar ----
  expect(valid_metric_name("serve.p99_us"), "dotted name");
  expect(valid_metric_name("workloads.sweep3d-hybrid.events.P4096"), "dash and digits");
  expect(!valid_metric_name(""), "empty name");
  expect(!valid_metric_name(".lead"), "leading dot");
  expect(!valid_metric_name("has space"), "space");
  expect(!valid_metric_name("slash/no"), "slash");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters");
  {
    Report bad;
    bool threw = false;
    try {
      bad.set("no spaces allowed", 1.0, "s");
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    expect(threw && bad.metrics.empty(), "the report refuses an invalid metric name");
  }

  // ---- per-seed determinism of the scenario generator ----
  {
    RequestStream a(kServeMixed, 42), b(kServeMixed, 42), c(kServeMixed, 43);
    expect(a.warm_set().size() == 384, "warm set is 3 x 2 x 64 scenarios");
    bool same = true, differs = false;
    std::set<std::string> misses;
    bool distinct = true;
    for (int i = 0; i < 20000; ++i) {
      const EvalScenario x = a.next(), y = b.next(), z = c.next();
      const std::string lx = request_line(i, x);
      same = same && lx == request_line(i, y);
      differs = differs || lx != request_line(i, z);
      if (x.warm_index < 0) distinct = distinct && misses.insert(request_line(0, x)).second;
    }
    expect(same, "one seed gives one request sequence");
    expect(differs, "another seed gives another sequence");
    expect(distinct, "fresh scenarios never repeat");
    const double share = 1.0 - static_cast<double>(misses.size()) / 20000.0;
    expect(share > 0.58 && share < 0.62, "serve-mixed draws ~60% hits");
  }

  {
    // Past the permutation of all 92166 analytic scenarios the stream
    // starts a new pass with a per-pass Wg: still never a repeat.
    const ServeMixSpec all_misses{0.0, 0.0, 1.0};
    RequestStream s(all_misses, 7);
    std::set<std::string> lines;
    bool distinct = true;
    for (int i = 0; i < 92166 + 500; ++i)
      distinct = distinct && lines.insert(request_line(0, s.next())).second;
    expect(distinct, "misses stay distinct across passes");
  }

  // ---- the report ----
  Report r;
  r.attempted = 3;
  r.set("setup_s", 0.25, "s");
  expect(r.json() ==
             "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":"
             "{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}",
         "result line format");
  r.fail("x");
  expect(!r.correct && r.failed == 1, "a failure makes the run incorrect");

  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
