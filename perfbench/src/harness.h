// Shared machinery of the repository benchmark: timing, the percentile
// rule, in-memory spans with self-time, the metric-name grammar, the
// seeded scenario generator and the result report.
//
// Everything here is the benchmark's own code. It deliberately does not
// reuse the library's RNG or statistics helpers: the generated inputs and
// the arithmetic that summarises them must stay identical when a change
// under test rewrites those helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---- statistics -------------------------------------------------------

/// Nearest-rank percentile (the smallest sample with at least pct% of the
/// sample at or below it). Sorts `xs`. Precondition: !xs.empty().
double percentile(std::vector<double>& xs, double pct);

/// Median of a copy of `xs` (mean of the two middle values for an even
/// count). Precondition: !xs.empty().
double median(std::vector<double> xs);

/// Arithmetic mean. Precondition: !xs.empty().
double mean(const std::vector<double>& xs);

/// The percentile rule of the benchmark: a timing is reported as its
/// median plus the highest of p90, p99, p99.9 and p99.99 that has at least
/// ten samples beyond its nearest rank. Returns that percentile, or 50 when
/// the sample supports no tail percentile.
double highest_supported_percentile(std::size_t samples);

// ---- spans ------------------------------------------------------------

/// One recorded interval. `parent` indexes the enclosing span (-1 for a
/// root); spans of one request share `request`.
struct Span {
  const char* name = "";  ///< a string literal: recording never allocates
  std::uint64_t request = 0;
  int parent = -1;
  double start_us = 0.0;  ///< since the tracer's origin
  double end_us = 0.0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children are clipped to the parent and
/// overlapping children are counted once).
std::vector<double> self_times_us(const std::vector<Span>& spans);

/// In-memory span recorder for one thread. When disabled, begin() and
/// end() do nothing, so the same code path runs traced and untraced.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Opens a span under the innermost open one; returns its index (-1
  /// when disabled).
  int begin(const char* name, std::uint64_t request);
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Median self time (µs) of the spans called `name`; 0 when none.
  double median_self_us(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON ("X" events; args carry
  /// the request id and parent index) with `metadata` as string pairs.
  void write_chrome_trace(
      std::ostream& out,
      const std::vector<std::pair<std::string, std::string>>& metadata) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t request)
      : tracer_(tracer), index_(tracer.begin(name, request)) {}
  ~Scope() { tracer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// ---- metric names -----------------------------------------------------

/// True when `name` is a valid metric name: 1..64 characters from
/// [A-Za-z0-9_.-], starting with a letter or digit.
bool valid_metric_name(const std::string& name);

// ---- seeded generation ------------------------------------------------

/// splitmix64: small, fast, and fully specified here so generated inputs
/// never depend on the library's or the standard library's generators.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, bound). Precondition: bound > 0.
  std::uint64_t below(std::uint64_t bound);
  /// Uniform double in [0, 1).
  double unit();

 private:
  std::uint64_t state_;
};

/// The scenario vocabulary of the serve requests.
extern const char* const kMachines[3];
extern const char* const kWorkloads[2];

/// One analytic or DES evaluation request.
struct EvalScenario {
  int machine = 0;   ///< index into kMachines
  int workload = 0;  ///< index into kWorkloads
  int processors = 1;
  bool sim = false;  ///< engine "sim" (DES admission class)
  double wg = 0.0;   ///< > 0: explicit Wg (makes each DES request distinct)
  int warm_index = -1;  ///< index into the warm set, -1 for a fresh scenario
};

/// The wave-serve request line of `s` with the given id.
std::string request_line(std::uint64_t id, const EvalScenario& s);

/// Fixed shape of a serve request mix.
struct ServeMixSpec {
  double hit_share;     ///< share of requests drawn from the warm set
  double sim_share;     ///< share of distinct DES requests
  double offered_qps;   ///< open-loop rate
};

/// Deterministic request stream of a serve request mix: the warm set (3
/// machines x 2 workloads x 64 processor counts, one drawn by seed from
/// each of 64 equal strata of [64, 4096]), then
/// an endless sequence drawn by seed (hits from the warm set, distinct
/// analytic misses at P in [1024, 16384] from a seeded permutation of the
/// whole space, and distinct small DES requests). After the permutation's
/// 92166 scenarios, the next pass repeats it with an explicit Wg that
/// differs per pass: a distinct cache key at the same evaluation cost.
class RequestStream {
 public:
  RequestStream(const ServeMixSpec& spec, std::uint64_t seed);

  const std::vector<EvalScenario>& warm_set() const { return warm_; }
  EvalScenario next();

 private:
  ServeMixSpec spec_;
  Rng rng_;
  std::vector<EvalScenario> warm_;
  std::vector<std::uint32_t> miss_order_;
  std::size_t miss_pos_ = 0;
  std::uint64_t miss_pass_ = 0;
  std::uint64_t sims_ = 0;
  double sim_wg_base_ = 0.0;
};

// ---- the report -------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  ///< correctness failures, one line each
  /// Named figures printed beside the result line (not part of it): the
  /// workload-specific names of the end-to-end metrics, sample counts and
  /// other context a reader needs to interpret the run.
  std::map<std::string, Metric> details;

  void set(const std::string& name, double value, const std::string& unit);
  void detail(const std::string& name, double value, const std::string& unit);
  /// Records one failed operation with a one-line reason.
  void fail(const std::string& reason);
  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":..}
  std::string json() const;
  /// The details as one JSON object {"name":{"value":..,"unit":..},...}.
  std::string details_json() const;
};

/// Formats a double with all its significant digits.
std::string number(double value);

/// `text` as a JSON string literal, quotes included.
std::string json_quote(const std::string& text);

}  // namespace perfbench
