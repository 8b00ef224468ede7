// The traced serve probe: an in-process serve::Server driven over AF_UNIX
// by the seeded serve-mixed request lines, then the same lines replayed
// in-process with one span per layer call.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "wave/context.h"
#include "wave/eval_service.h"

namespace perfbench {

// The offered rate sits well below what 2 workers sustain on 4 cores at
// this miss share (about 7k qps), so the open loop measures service time
// plus ordinary queueing, not a growing backlog.
const ServeMixSpec kServeMixed{0.6, 0.005, 2000.0};

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint64_t kNoId = std::numeric_limits<std::uint64_t>::max();

std::string id_prefix(std::uint64_t id) {
  return "{\"id\":\"" + std::to_string(id) + "\"";
}

std::uint64_t response_id(const std::string& response) {
  static const std::string kStart = "{\"id\":\"";
  if (response.compare(0, kStart.size(), kStart) != 0) return kNoId;
  std::uint64_t id = 0;
  std::size_t i = kStart.size();
  for (; i < response.size() && std::isdigit(static_cast<unsigned char>(response[i])); ++i)
    id = id * 10 + static_cast<std::uint64_t>(response[i] - '0');
  return i == kStart.size() ? kNoId : id;
}

/// render_result of the in-process evaluation of `s`'s request line, with
/// the id prefix cut off (the tail is the same for every id).
std::string expected_tail(const wave::Context& ctx, const EvalScenario& s) {
  wave::serve::Request req;
  std::string error;
  if (!wave::serve::parse_request(request_line(0, s), req, error))
    throw std::runtime_error("reference parse failed: " + error);
  const wave::Expected<wave::Result> r =
      wave::serve::query_from(ctx, req).run();
  if (!r.ok())
    throw std::runtime_error("reference evaluation failed: " +
                             r.status().to_string());
  return wave::serve::render_result("0", r.value(), false)
      .substr(id_prefix(0).size());
}

bool response_matches(const std::string& response, std::uint64_t id,
                      const std::string& tail) {
  const std::string prefix = id_prefix(id);
  return response.size() == prefix.size() + tail.size() &&
         response.compare(0, prefix.size(), prefix) == 0 &&
         response.compare(prefix.size(), std::string::npos, tail) == 0;
}

/// A response whose check needs an in-process evaluation of a scenario
/// outside the warm set; checked after the timed phases.
struct Deferred {
  std::uint64_t id = 0;
  EvalScenario scenario;
  std::string response;
};

/// What the client side saw; the checking threads add failures at once.
struct Tally {
  std::mutex mutex;
  std::uint64_t sent = 0;
  std::vector<Deferred> deferred;
  std::vector<std::string> failures;

  void fail(std::string reason) {
    const std::lock_guard<std::mutex> lock(mutex);
    failures.push_back(std::move(reason));
  }
};

/// Checks one response: hits against the warm-set reference right away,
/// everything else deferred. Returns false for a wrong or failed answer.
bool check_response(const std::string& response, std::uint64_t id,
                    const EvalScenario& s,
                    const std::vector<std::string>& warm_tails,
                    std::vector<Deferred>& deferred, std::string& why) {
  if (s.warm_index >= 0) {
    if (response_matches(response, id,
                         warm_tails[static_cast<std::size_t>(s.warm_index)]))
      return true;
    why = "response " + std::to_string(id) + " differs from the in-process "
          "render: " + response.substr(0, 160);
    return false;
  }
  if (response.find("\"ok\":true") == std::string::npos) {
    why = "request " + std::to_string(id) + " failed: " + response.substr(0, 160);
    return false;
  }
  deferred.push_back(Deferred{id, s, response});
  return true;
}

/// A running server with its own Context (the set-up a user pays).
struct LiveServer {
  std::unique_ptr<wave::Context> ctx;
  std::unique_ptr<wave::serve::Server> server;
  std::vector<std::string> warm_responses;
};

wave::ServeOptions serve_options(const ThreadBudget& threads) {
  wave::ServeOptions o;
  // Relative to the working directory: AF_UNIX paths are short-limited.
  o.socket_path = "perfbench-" + std::to_string(::getpid()) + ".sock";
  o.workers = threads.serve_workers;
  o.shards = 0;  // one cache shard per worker
  o.cache_capacity = kServeCacheCapacity;
  // Admission bounds far above what the fixed rate can queue: the
  // workload is chosen so that no request is shed.
  o.analytic_queue_limit = 65536;
  o.des_queue_limit = 64;
  return o;
}

void connect_or_throw(wave::serve::Client& client, const std::string& path) {
  const wave::Status s = client.connect(path);
  if (!s.is_ok()) throw std::runtime_error("connect: " + s.to_string());
}

/// Context construction + catalog load + server start + cache warm-up over
/// the socket.
LiveServer start_server(const RunConfig& cfg, const std::vector<EvalScenario>& warm) {
  LiveServer live;
  live.ctx = std::make_unique<wave::Context>();
  const wave::Status loaded = live.ctx->add_machine_dir(cfg.machines_dir);
  if (!loaded.is_ok())
    throw std::runtime_error("catalog load: " + loaded.to_string());
  live.server = std::make_unique<wave::serve::Server>(
      *live.ctx, serve_options(cfg.threads));
  const wave::Status started = live.server->start();
  if (!started.is_ok())
    throw std::runtime_error("server start: " + started.to_string());

  wave::serve::Client client;
  connect_or_throw(client, live.server->socket_path());
  constexpr std::size_t kAhead = 16;
  live.warm_responses.resize(warm.size());
  std::size_t sent = 0;
  for (std::size_t got = 0; got < warm.size(); ++got) {
    while (sent < warm.size() && sent < got + kAhead) {
      if (!client.send_line(request_line(sent, warm[sent])).is_ok())
        throw std::runtime_error("warm-up send failed");
      ++sent;
    }
    wave::Expected<std::string> line = client.read_line();
    if (!line.ok()) throw std::runtime_error("warm-up read failed");
    const std::uint64_t id = response_id(line.value());
    if (id >= warm.size()) throw std::runtime_error("warm-up: bad response id");
    live.warm_responses[id] = std::move(line.value());
  }
  return live;
}

/// Open loop at a fixed rate on one connection: each request is sent when
/// it is due, whatever the server does. Latency counts from the due time;
/// a failed request counts as +inf (a miss of any limit).
struct OpenLoop {
  std::vector<double> latency_us;  ///< in due order
  std::vector<double> lag_us;      ///< how late each request was sent
  std::vector<std::string> responses;
};

/// With two generator threads a sender thread writes each line when it is
/// due and the calling thread reads; with one, the calling thread sends a
/// line and reads its reply before the next (a slow reply then shows as
/// sender lag). Each request is answered once, on this one connection.
OpenLoop open_loop(const std::string& socket,
                   const std::vector<std::pair<std::uint64_t, EvalScenario>>& plan,
                   double rate, int generator_threads,
                   const std::vector<std::string>& warm_tails, Tally& tally) {
  OpenLoop out;
  const std::size_t n = plan.size();
  out.latency_us.assign(n, kInf);
  out.lag_us.assign(n, 0.0);
  out.responses.resize(n);
  std::vector<std::string> lines(n);
  for (std::size_t i = 0; i < n; ++i) lines[i] = request_line(plan[i].first, plan[i].second);
  const std::uint64_t base = plan.front().first;

  // The sender only writes to the socket and the receiver only reads it
  // (and owns the client's read buffer), as in bench/serve_load.cpp.
  wave::serve::Client client;
  connect_or_throw(client, socket);
  const auto period = std::chrono::duration<double>(1.0 / rate);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(i));
  };
  std::atomic<std::size_t> sent{0};
  std::atomic<bool> send_failed{false};
  const auto send = [&](std::size_t i) {
    // Spin, not sleep: on a virtual machine a sleeping thread's CPU may be
    // descheduled, and waking it can take milliseconds that would be
    // charged to the server as latency.
    const Clock::time_point when = due(i);
    while (Clock::now() < when) {
    }
    out.lag_us[i] = us_between(when, Clock::now());
    if (!client.send_line(lines[i]).is_ok()) {
      send_failed.store(true);
      return false;
    }
    sent.store(i + 1, std::memory_order_release);
    return true;
  };
  std::vector<Deferred> deferred;
  const auto receive = [&] {
    wave::Expected<std::string> line = client.read_line();
    if (!line.ok()) return false;
    const Clock::time_point now = Clock::now();
    const std::uint64_t id = response_id(line.value());
    if (id < base || id - base >= n) {
      tally.fail("open loop: unknown response id");
      return true;
    }
    const std::size_t i = id - base;
    std::string why;
    if (check_response(line.value(), id, plan[i].second, warm_tails, deferred, why)) {
      out.latency_us[i] = us_between(due(i), now);
    } else {
      tally.fail(why);
    }
    out.responses[i] = std::move(line.value());
    return true;
  };

  std::size_t got = 0;
  if (generator_threads >= 2) {
    std::thread sender([&] {
      for (std::size_t i = 0; i < n && send(i); ++i) {
      }
    });
    for (; got < n; ++got) {
      if (send_failed.load() && got >= sent.load(std::memory_order_acquire)) break;
      if (!receive()) break;
    }
    sender.join();
  } else {
    for (; got < n && send(got) && receive(); ++got) {
    }
  }
  if (got < n) tally.fail("open loop: " + std::to_string(n - got) + " requests unanswered");
  const std::lock_guard<std::mutex> lock(tally.mutex);
  tally.sent += sent.load();
  for (Deferred& d : deferred) tally.deferred.push_back(std::move(d));
  return out;
}

/// Checks every deferred response against render_result of the same
/// request evaluated in-process, on `threads` threads.
void verify_deferred(const wave::Context& ctx, const std::vector<Deferred>& deferred,
                     int threads, Tally& tally) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < deferred.size(); i = next++) {
        const Deferred& d = deferred[i];
        try {
          if (!response_matches(d.response, d.id, expected_tail(ctx, d.scenario)))
            tally.fail("response " + std::to_string(d.id) +
                       " differs from the in-process render: " + d.response.substr(0, 160));
        } catch (const std::exception& e) {
          tally.fail(e.what());
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

std::vector<std::string> warm_tails_for(const wave::Context& ctx,
                                        const std::vector<EvalScenario>& warm) {
  std::vector<std::string> tails;
  tails.reserve(warm.size());
  for (const EvalScenario& s : warm) tails.push_back(expected_tail(ctx, s));
  return tails;
}

void check_warm(const LiveServer& live, const std::vector<std::string>& tails, Tally& tally) {
  for (std::size_t i = 0; i < tails.size(); ++i)
    if (!response_matches(live.warm_responses[i], i, tails[i]))
      tally.fail("warm-up response " + std::to_string(i) + " differs from the in-process render");
}

/// (le, cumulative count) pairs of serve_op_eval_latency_us, scraped from
/// the server's `metrics` op (Prometheus text inside a JSON string).
std::vector<std::pair<double, double>> scrape_eval_buckets(const std::string& socket) {
  wave::serve::Client client;
  connect_or_throw(client, socket);
  if (!client.send_line("{\"id\":\"m\",\"op\":\"metrics\"}").is_ok())
    throw std::runtime_error("metrics op: send failed");
  wave::Expected<std::string> reply = client.read_line();
  if (!reply.ok()) throw std::runtime_error("metrics op: no reply");
  const std::string& raw = reply.value();
  const std::string key = "\"metrics\":\"";
  std::size_t i = raw.find(key);
  if (i == std::string::npos) throw std::runtime_error("metrics op: no metrics field");
  std::string text;
  for (i += key.size(); i < raw.size() && raw[i] != '"'; ++i) {
    if (raw[i] != '\\' || i + 1 >= raw.size()) {
      text.push_back(raw[i]);
      continue;
    }
    const char c = raw[++i];
    text.push_back(c == 'n' ? '\n' : c == 't' ? '\t' : c);
  }
  std::vector<std::pair<double, double>> buckets;
  const std::string prefix = "serve_op_eval_latency_us_bucket{le=\"";
  for (std::size_t pos = text.find(prefix); pos != std::string::npos;
       pos = text.find(prefix, pos + 1)) {
    const std::size_t le_start = pos + prefix.size();
    const std::size_t le_end = text.find('"', le_start);
    const std::string le = text.substr(le_start, le_end - le_start);
    const double bound = le == "+Inf" ? kInf : std::stod(le);
    const double count = std::stod(text.substr(text.find('}', le_end) + 1));
    buckets.emplace_back(bound, count);
  }
  return buckets;
}

/// Median of the observations made between two cumulative-bucket scrapes,
/// interpolated linearly inside its log2 bucket.
double interval_p50(const std::vector<std::pair<double, double>>& before,
                    const std::vector<std::pair<double, double>>& after) {
  const auto cum_at = [](const std::vector<std::pair<double, double>>& b, double le) {
    double c = 0.0;
    for (const auto& [bound, count] : b)
      if (bound <= le) c = count;
    return c;
  };
  std::vector<double> bounds;
  for (const auto& [bound, count] : after) bounds.push_back(bound);
  const double total = cum_at(after, kInf) - cum_at(before, kInf);
  if (total <= 0) return 0.0;
  double prev_bound = 0.0, prev_cum = 0.0;
  for (const double bound : bounds) {
    const double cum = cum_at(after, bound) - cum_at(before, bound);
    if (cum >= 0.5 * total && cum > prev_cum) {
      if (!std::isfinite(bound)) return prev_bound;
      return prev_bound + (0.5 * total - prev_cum) / (cum - prev_cum) * (bound - prev_bound);
    }
    prev_bound = bound;
    prev_cum = cum;
  }
  return prev_bound;
}

/// In-process replay of request lines through the layers the server
/// calls, one span per call: parse_request -> query_from ->
/// EvalService::evaluate -> render_result.
void replay(const wave::Context& ctx,
              const std::vector<std::pair<std::uint64_t, EvalScenario>>& reqs,
              std::size_t warm_count, int shards, Tracer& tracer,
              std::vector<std::string>& responses) {
  wave::EvalService service(
      ctx, wave::EvalService::Options(kServeCacheCapacity, static_cast<std::size_t>(shards)));
  std::vector<char> seen(warm_count, 0);
  responses.assign(reqs.size(), std::string());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto& [id, s] = reqs[i];
    const std::string line = request_line(id, s);
    const Scope request(tracer, "serve.request", id);
    wave::serve::Request req;
    std::string error;
    bool parsed = false;
    {
      const Scope span(tracer, "serve.parse_request", id);
      parsed = wave::serve::parse_request(line, req, error);
    }
    if (!parsed) continue;
    wave::Query query;
    {
      const Scope span(tracer, "serve.query_from", id);
      query = wave::serve::query_from(ctx, req);
    }
    bool hit = false;
    if (s.warm_index >= 0) {
      hit = seen[static_cast<std::size_t>(s.warm_index)] != 0;
      seen[static_cast<std::size_t>(s.warm_index)] = 1;
    }
    wave::Expected<wave::Result> result = wave::Status::internal("not run");
    {
      const Scope span(tracer, hit ? "api.evaluate.hit" : "api.evaluate.miss", id);
      result = service.evaluate(query);
    }
    if (!result.ok()) continue;
    const Scope span(tracer, "serve.render_result", id);
    responses[i] = wave::serve::render_result(req.id, result.value(), false);
  }
}

}  // namespace

void probe_serve(const RunConfig& cfg, Tracer& tracer, Report& out) {
  const Scope probe(tracer, "probe.serve", 0);
  const ServeMixSpec& spec = kServeMixed;
  RequestStream stream(spec, cfg.seed);
  const std::vector<EvalScenario>& warm = stream.warm_set();
  LiveServer live = start_server(cfg, warm);
  const wave::Context reference;
  const std::vector<std::string> warm_tails = warm_tails_for(reference, warm);
  Tally tally;
  check_warm(live, warm_tails, tally);

  const std::string& socket = live.server->socket_path();
  const wave::ServeStats stats0 = live.server->stats();
  const wave::EvalService::Stats cache0 = live.server->cache_stats();
  const auto buckets0 = scrape_eval_buckets(socket);
  const double phase_s = std::clamp(0.1 * cfg.seconds, 1.0, 3.0);
  std::vector<std::pair<std::uint64_t, EvalScenario>> plan(
      static_cast<std::size_t>(spec.offered_qps * phase_s));
  std::uint64_t next_id = warm.size();
  for (auto& p : plan) p = {next_id++, stream.next()};
  OpenLoop ol = open_loop(socket, plan, spec.offered_qps, cfg.threads.generator_threads,
                          warm_tails, tally);
  const auto buckets1 = scrape_eval_buckets(socket);
  const wave::ServeStats stats1 = live.server->stats();
  const wave::EvalService::Stats cache1 = live.server->cache_stats();
  live.server->stop();
  verify_deferred(reference, tally.deferred, cfg.threads.nproc, tally);
  const std::size_t failed_before = out.failed;
  out.attempted += warm.size() + tally.sent;
  for (const std::string& f : tally.failures) out.fail(f);

  const double client_p50 = percentile(ol.latency_us, 50.0);
  const double server_p50 = interval_p50(buckets0, buckets1);
  out.set("serve.server_eval_p50_us", server_p50, "us");
  out.set("serve.transport_us", client_p50 - server_p50, "us");
  out.set("serve.sender_lag_us", percentile(ol.lag_us, 99.0), "us");
  out.set("serve.p90_us", percentile(ol.latency_us, 90.0), "us");
  out.set("serve.p99_us", percentile(ol.latency_us, 99.0), "us");
  out.set("serve.shed", static_cast<double>(stats1.shed - stats0.shed), "count");
  out.set("serve.failed", static_cast<double>(out.failed - failed_before), "count");
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);
  out.set("api.hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
  out.set("api.resets", static_cast<double>(cache1.resets), "count");

  // The same lines, in-process: warm-up first, then the measured phase.
  std::vector<std::pair<std::uint64_t, EvalScenario>> lines;
  for (std::size_t i = 0; i < warm.size(); ++i) lines.emplace_back(i, warm[i]);
  lines.insert(lines.end(), plan.begin(), plan.end());
  std::vector<std::string> replayed;
  replay(reference, lines, warm.size(), cfg.threads.serve_workers, tracer, replayed);
  out.attempted += lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& socket_response =
        i < warm.size() ? live.warm_responses[i] : ol.responses[i - warm.size()];
    if (replayed[i] != socket_response)
      out.fail("replayed response " + std::to_string(lines[i].first) +
               " differs from the socket response");
  }
  out.set("serve.parse_us", tracer.median_self_us("serve.parse_request"), "us");
  out.set("serve.render_us", tracer.median_self_us("serve.render_result"), "us");
  out.set("api.hit_us", tracer.median_self_us("api.evaluate.hit"), "us");
  out.set("api.miss_us", tracer.median_self_us("api.evaluate.miss"), "us");

  // Key construction alone, timed call by call on the measured lines.
  wave::EvalService keys(reference);
  std::vector<double> key_us;
  for (std::size_t i = 0; i < plan.size() && i < 4000; ++i) {
    wave::serve::Request req;
    std::string error;
    if (!wave::serve::parse_request(request_line(plan[i].first, plan[i].second), req, error))
      continue;
    const wave::Query query = wave::serve::query_from(reference, req);
    const Clock::time_point t0 = Clock::now();
    const std::string key = keys.canonical_key(query);
    key_us.push_back(us_between(t0, Clock::now()));
    if (key.empty()) out.fail("empty canonical key");
  }
  out.set("api.key_us", median(key_us), "us");
}

}  // namespace perfbench
