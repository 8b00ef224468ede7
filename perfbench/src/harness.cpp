#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace perfbench {

// ---- statistics -------------------------------------------------------

namespace {

/// 1-based nearest rank ceil(pct/100 * n); the epsilon keeps decimal
/// percentiles such as 99.9 from rounding one rank up (99.9 * 1000 / 100
/// is 999.0000000000001 in binary floating point).
std::size_t nearest_rank(std::size_t n, double pct) {
  return static_cast<std::size_t>(
      std::ceil(pct * static_cast<double>(n) / 100.0 - 1e-9));
}

}  // namespace

double percentile(std::vector<double>& xs, double pct) {
  if (xs.empty()) throw std::invalid_argument("percentile of an empty sample");
  std::sort(xs.begin(), xs.end());
  std::size_t rank = nearest_rank(xs.size(), pct);
  rank = std::clamp<std::size_t>(rank, 1, xs.size());
  return xs[rank - 1];
}

double median(std::vector<double> xs) {
  if (xs.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) throw std::invalid_argument("mean of an empty sample");
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double highest_supported_percentile(std::size_t samples) {
  double best = 50.0;
  for (const double pct : {90.0, 99.0, 99.9, 99.99}) {
    const std::size_t rank = nearest_rank(samples, pct);
    // Samples strictly beyond the nearest rank.
    if (rank >= 1 && rank <= samples && samples - rank >= 10) best = pct;
  }
  return best;
}

// ---- spans ------------------------------------------------------------

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start_us, p.start_us);
    const double hi = std::min(s.end_us, p.end_us);
    if (hi > lo)
      children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& cs = children[i];
    std::sort(cs.begin(), cs.end());
    double covered = 0.0;
    double run_lo = 0.0, run_hi = -std::numeric_limits<double>::infinity();
    for (const auto& [lo, hi] : cs) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (spans[i].end_us - spans[i].start_us) - covered;
  }
  return self;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

int Tracer::begin(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.request = request;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_us = us_between(origin_, Clock::now());
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_us =
      us_between(origin_, Clock::now());
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double Tracer::median_self_us(const std::string& name) const {
  const std::vector<double> self = self_times_us(spans_);
  std::vector<double> xs;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (name == spans_[i].name) xs.push_back(self[i]);
  return xs.empty() ? 0.0 : median(std::move(xs));
}

namespace {

void append_json_string(std::string& out, const std::string& text) {
  out.push_back('"');
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

}  // namespace

void Tracer::write_chrome_trace(
    std::ostream& out,
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  std::string text = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != 0) text.push_back(',');
    text += "{\"name\":";
    append_json_string(text, s.name);
    text += ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" + number(s.start_us) +
            ",\"dur\":" + number(s.end_us - s.start_us) +
            ",\"args\":{\"request\":" + std::to_string(s.request) +
            ",\"parent\":" + std::to_string(s.parent) + "}}";
  }
  text += "],\"displayTimeUnit\":\"ns\",\"metadata\":{";
  for (std::size_t i = 0; i < metadata.size(); ++i) {
    if (i != 0) text.push_back(',');
    append_json_string(text, metadata[i].first);
    text.push_back(':');
    append_json_string(text, metadata[i].second);
  }
  text += "}}\n";
  out << text;
}

// ---- metric names -----------------------------------------------------

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

// ---- seeded generation ------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t bound) {
  // Rejection sampling: no modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return x % bound;
}

double Rng::unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

const char* const kMachines[3] = {"xt4-dual", "xt4-single", "sp2"};
const char* const kWorkloads[2] = {"wavefront", "sweep3d-hybrid"};

std::string request_line(std::uint64_t id, const EvalScenario& s) {
  std::string line = "{\"id\":\"" + std::to_string(id) +
                     "\",\"op\":\"eval\",\"machine\":\"" +
                     kMachines[s.machine] + "\",\"workload\":\"" +
                     kWorkloads[s.workload] + "\",\"processors\":" +
                     std::to_string(s.processors);
  if (s.wg > 0) line += ",\"wg\":" + number(s.wg);
  if (s.sim) line += ",\"engine\":\"sim\"";
  line += "}";
  return line;
}

namespace {
constexpr int kWarmProcessorStrata = 64;
constexpr int kMissProcessorsLo = 1024;
constexpr int kMissProcessorsHi = 16384;
constexpr int kMissProcessorSpan = kMissProcessorsHi - kMissProcessorsLo + 1;
constexpr std::uint32_t kMissSpace = 3u * 2u * kMissProcessorSpan;
}  // namespace

RequestStream::RequestStream(const ServeMixSpec& spec, std::uint64_t seed)
    : spec_(spec), rng_(seed ^ 0x5EEDBE7C4ull) {
  // Warm set: one processor count per stratum, shared by every machine x
  // workload pair, so the warm-up cost does not drift with the seed.
  const double stratum = (4096.0 - 64.0) / kWarmProcessorStrata;
  for (int k = 0; k < kWarmProcessorStrata; ++k) {
    const int p = 64 + static_cast<int>(stratum * (k + rng_.unit()));
    for (int m = 0; m < 3; ++m) {
      for (int w = 0; w < 2; ++w) {
        EvalScenario s;
        s.machine = m;
        s.workload = w;
        s.processors = p;
        s.warm_index = static_cast<int>(warm_.size());
        warm_.push_back(s);
      }
    }
  }
  if (spec_.hit_share < 1.0) {
    miss_order_.resize(kMissSpace);
    for (std::uint32_t i = 0; i < kMissSpace; ++i) miss_order_[i] = i;
    for (std::uint32_t i = kMissSpace - 1; i > 0; --i)
      std::swap(miss_order_[i], miss_order_[rng_.below(i + 1)]);
  }
  sim_wg_base_ = 0.05 + 0.05 * rng_.unit();
}

EvalScenario RequestStream::next() {
  const double u = rng_.unit();
  if (u < spec_.hit_share)
    return warm_[static_cast<std::size_t>(rng_.below(warm_.size()))];
  EvalScenario s;
  if (u < spec_.hit_share + spec_.sim_share) {
    // A small DES point (2-6 ms); the Wg offset makes every one distinct
    // so it reaches the DES admission class instead of the cache.
    static constexpr int kSimProcessors[3] = {16, 25, 36};
    s.machine = static_cast<int>(rng_.below(3));
    s.workload = 0;
    s.processors = kSimProcessors[rng_.below(3)];
    s.sim = true;
    s.wg = sim_wg_base_ * (1.0 + 1e-6 * static_cast<double>(++sims_));
    return s;
  }
  if (miss_pos_ == miss_order_.size()) {
    miss_pos_ = 0;
    ++miss_pass_;
  }
  const std::uint32_t code = miss_order_[miss_pos_++];
  if (miss_pass_ > 0) s.wg = 0.1 * (1.0 + 1e-6 * static_cast<double>(miss_pass_));
  s.processors = kMissProcessorsLo + static_cast<int>(code % kMissProcessorSpan);
  s.machine = static_cast<int>((code / kMissProcessorSpan) % 3);
  s.workload = static_cast<int>(code / kMissProcessorSpan / 3);
  return s;
}

// ---- the report -------------------------------------------------------

std::string json_quote(const std::string& text) {
  std::string out;
  append_json_string(out, text);
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("invalid metric name '" + name + "'");
  metrics[name] = Metric{value, unit};
}

void Report::fail(const std::string& reason) {
  ++failed;
  correct = false;
  if (notes.size() < 20) notes.push_back(reason);
}

namespace {

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out.push_back(',');
    append_json_string(out, name);
    out += ":{\"value\":" + number(m.value) + ",\"unit\":";
    append_json_string(out, m.unit);
    out += "}";
  }
  return out + "}";
}

}  // namespace

void Report::detail(const std::string& name, double value,
                    const std::string& unit) {
  details[name] = Metric{value, unit};
}

std::string Report::json() const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":" + metrics_json(metrics) + "}";
  return out;
}

std::string Report::details_json() const { return metrics_json(details); }

}  // namespace perfbench
