#include "serving.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>

#include "common/rng.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using varpred::Rng;
using varpred::obs::HdrHistogram;
using varpred::obs::HdrSnapshot;
using varpred::serve::Client;

// One response in this many is kept for the recomputation check.
constexpr double kSampleShare = 1.0 / 64.0;
// Open-loop repetitions run their schedule this long before recording.
constexpr std::uint64_t kWarmupNs = 100'000'000;
// A ladder rung sends at least this many recorded requests (11 beyond p99).
constexpr double kMinRungSamples = 1100.0;
// A repetition of a pooled phase sends at least this many recorded
// requests, so three pool to 11 beyond p99 whatever --seconds is.
constexpr double kMinRepSamples = 370.0;

void sleep_until_ns(std::uint64_t t) {
  const std::uint64_t now = now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

/// One connection's tallies for one repetition.
struct Sender {
  HdrHistogram latency{3};
  HdrHistogram queue{3};
  HdrHistogram compute{3};
  HdrHistogram gen_lag{3};
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::uint64_t backlog = 0;
  std::vector<double> swap_ms;
  std::uint64_t swap_failed = 0;
  std::set<std::uint64_t> versions;
  std::vector<Sampled> sampled;
  Rng rng;
  std::uint64_t next_trace = 0;
  Probe request;  // the request being sent
};

/// Draws the next seeded request into `s.request`; returns its probe index.
std::size_t draw(const std::vector<Probe>& probes, Sender& s) {
  const std::size_t p = s.rng.uniform_index(probes.size());
  s.request = probes[p];
  s.request.seed = s.rng.next_u64();
  return p;
}

/// Sends one request without recording it; returns the completion time.
std::uint64_t warm_one(Client& client, const std::vector<Probe>& probes,
                       Sender& s) {
  draw(probes, s);
  try {
    if (!client.predict(s.request, 0).ok) ++s.failed;
  } catch (const std::exception&) {
    ++s.failed;
  }
  return now_ns();
}

/// Sends one seeded request and records it; returns the completion time.
/// Latency counts from `due`.
std::uint64_t send_one(Client& client, const std::vector<Probe>& probes,
                       Sender& s, std::uint64_t due) {
  const std::size_t p = draw(probes, s);
  const bool keep = s.rng.uniform() < kSampleShare;
  varpred::serve::PredictOutcome outcome;
  bool ok = false;
  try {
    Span span("serve.request");
    outcome = client.predict(s.request, s.next_trace++);
    ok = outcome.ok;
  } catch (const std::exception&) {
    ok = false;  // transport failure: counted, the run then fails
  }
  const std::uint64_t done = now_ns();
  ++s.sent;
  s.latency.record(done > due ? done - due : 0);
  if (!ok) {
    ++s.failed;
    return done;
  }
  s.queue.record(outcome.response.queue_ns);
  s.compute.record(outcome.response.compute_ns);
  s.versions.insert(outcome.response.version);
  if (keep) {
    s.sampled.push_back({p, s.request.seed, outcome.response.version,
                         hash_samples(outcome.response.samples)});
  }
  return done;
}

void merge_into(HdrSnapshot& into, const HdrSnapshot& from, bool first) {
  if (first) {
    into = from;
  } else {
    into.merge(from);
  }
}

/// Folds the senders of one repetition into a Rep.
Rep merge(std::vector<std::unique_ptr<Sender>>& senders, double seconds,
          std::vector<Sampled>& sampled) {
  Rep out;
  out.seconds = seconds;
  std::set<std::uint64_t> versions;
  for (std::size_t j = 0; j < senders.size(); ++j) {
    Sender& s = *senders[j];
    merge_into(out.latency, s.latency.snapshot(), j == 0);
    merge_into(out.queue, s.queue.snapshot(), j == 0);
    merge_into(out.compute, s.compute.snapshot(), j == 0);
    merge_into(out.gen_lag, s.gen_lag.snapshot(), j == 0);
    out.sent += s.sent;
    out.failed += s.failed;
    out.backlog += s.backlog;
    out.swap_failed += s.swap_failed;
    out.swap_ms.insert(out.swap_ms.end(), s.swap_ms.begin(), s.swap_ms.end());
    versions.insert(s.versions.begin(), s.versions.end());
    sampled.insert(sampled.end(), s.sampled.begin(), s.sampled.end());
  }
  out.versions.assign(versions.begin(), versions.end());
  return out;
}

std::vector<std::unique_ptr<Sender>> make_senders(std::size_t n,
                                                  std::uint64_t seed,
                                                  std::uint64_t stream) {
  std::vector<std::unique_ptr<Sender>> senders;
  for (std::size_t j = 0; j < n; ++j) {
    auto s = std::make_unique<Sender>();
    const std::uint64_t id = stream * 64 + j;
    s->rng.reseed(varpred::seed_combine(seed, id));
    s->next_trace = (id << 32) | 1;
    senders.push_back(std::move(s));
  }
  return senders;
}

}  // namespace

std::vector<Probe> make_probes(const varpred::measure::SystemModel& system,
                               const std::string& model, std::size_t count,
                               std::size_t probe_runs, std::uint32_t n_samples,
                               std::uint64_t seed) {
  const std::size_t n_bench = varpred::measure::benchmark_table().size();
  Rng rng(seed);
  std::vector<Probe> probes(count);
  for (Probe& req : probes) {
    const std::size_t b = rng.uniform_index(n_bench);
    const auto runs = varpred::measure::measure_benchmark(b, system, probe_runs,
                                                          rng.next_u64());
    req.model = model;
    req.version = 0;
    req.n_samples = n_samples;
    req.benchmark = static_cast<std::uint32_t>(b);
    req.n_metrics = static_cast<std::uint32_t>(runs.counters.cols());
    req.runtimes = runs.runtimes;
    for (std::size_t r = 0; r < runs.run_count(); ++r) {
      for (std::size_t m = 0; m < req.n_metrics; ++m) {
        req.counters.push_back(runs.counters.at(r, m));
      }
    }
  }
  return probes;
}

HdrSnapshot Phase::pooled(HdrSnapshot Rep::*h) const {
  HdrSnapshot out;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    merge_into(out, reps[i].*h, i == 0);
  }
  return out;
}

double Phase::latency_ms(double q) const {
  return static_cast<double>(pooled(&Rep::latency).quantile(q)) * 1e-6;
}

double Phase::qps() const {
  double seconds = 0.0;
  for (const Rep& r : reps) seconds += r.seconds;
  return seconds > 0.0 ? static_cast<double>(sent()) / seconds : 0.0;
}

std::uint64_t Phase::sent() const {
  std::uint64_t n = 0;
  for (const Rep& r : reps) n += r.sent;
  return n;
}

std::uint64_t Phase::failed() const {
  std::uint64_t n = 0;
  for (const Rep& r : reps) n += r.failed + r.swap_failed;
  return n;
}

Rung Phase::rung() const {
  Rung r;
  r.rate_qps = rate_qps;
  r.count = sent();
  r.failed = failed();
  r.p99_ms = latency_ms(0.99);
  r.gen_lag_p99_ms =
      static_cast<double>(pooled(&Rep::gen_lag).quantile(0.99)) * 1e-6;
  for (const Rep& rep : reps) r.backlog += rep.backlog;
  return r;
}

Generator::Generator(std::uint16_t port, const std::vector<Probe>& probes,
                     GeneratorConfig config)
    : probes_(probes), config_(std::move(config)) {
  for (std::size_t j = 0; j < kConnections; ++j) {
    clients_.push_back(std::make_unique<Client>(port));
  }
}

RungLimits Generator::limits() const {
  return {config_.p99_limit_ms, kGenLagLimitMs, kConnections};
}

void Generator::c1_round() {
  Span span("bench.phase.c1");
  c1.reps.push_back(closed_rep(1, config_.unit_s, kMinRepSamples));
}

void Generator::round() {
  const double u = config_.unit_s;
  c1_round();
  {
    Span span("bench.phase.c4");
    c4.reps.push_back(closed_rep(kConnections, 0.6 * u,
                                 kMinRepSamples / kConnections));
  }
  {
    Span span("bench.phase.open1k");
    open1k.reps.push_back(
        open_rep(kOpen1kQps, std::max(1.2 * u, kMinRepSamples / kOpen1kQps),
                 false));
  }
  {
    Span span("bench.phase.open2k");
    open2k.reps.push_back(
        open_rep(kOpen2kQps, std::max(0.4 * u, kMinRepSamples / kOpen2kQps),
                 false));
  }
  Span span("bench.phase.swap");
  swap.reps.push_back(
      open_rep(kOpen1kQps, std::max(0.8 * u, kMinRepSamples / kOpen1kQps),
               true));
}

Rep Generator::closed_rep(std::size_t connections, double seconds,
                          double min_sent) {
  auto senders = make_senders(connections, config_.seed, stream_++);
  const std::uint32_t parent = Span::current();
  const std::uint64_t t0 = now_ns();
  const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  const auto loop = [&](std::size_t j) {
    Sender& s = *senders[j];
    while (now_ns() < end || static_cast<double>(s.sent) < min_sent) {
      send_one(*clients_[j], probes_, s, now_ns());
    }
  };
  if (connections == 1) {
    loop(0);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t j = 0; j < connections; ++j) {
      threads.emplace_back([&, j] {
        Span conn("bench.conn", parent);
        loop(j);
      });
    }
    for (auto& t : threads) t.join();
  }
  const double elapsed = static_cast<double>(now_ns() - t0) * 1e-9;
  return merge(senders, elapsed, sampled);
}

void Generator::ladder() {
  Span span("bench.phase.ladder");
  std::vector<Rung> met;  // rung outcomes, for the stop rule
  const auto run_rung = [&](double rate) {
    const double seconds =
        std::max(0.8 * config_.unit_s, kMinRungSamples / rate);
    rungs.push_back({"ladder", rate, {open_rep(rate, seconds, false)}});
    met.push_back(rungs.back().rung());
  };
  // Climb from 2000/s while rungs are met, stopping after two misses in a
  // row; if 2000/s is missed, step down until a rung is met.
  const auto at = std::find(kLadderQps.begin(), kLadderQps.end(), kOpen2kQps);
  run_rung(*at);
  if (rung_met(met.front(), limits())) {
    for (auto it = at + 1; it != kLadderQps.end(); ++it) {
      run_rung(*it);
      if (ladder_done(met, limits())) break;
    }
  } else {
    for (auto it = at; it != kLadderQps.begin();) {
      run_rung(*--it);
      if (rung_met(met.back(), limits())) break;
    }
  }
  max_qps = select_max_qps(met, limits());
}

Rep Generator::open_rep(double rate, double seconds, bool swap_once) {
  auto senders = make_senders(kConnections, config_.seed, stream_++);
  const double period_ns = 1e9 * static_cast<double>(kConnections) / rate;
  const std::uint32_t parent = Span::current();
  const std::uint64_t start = now_ns() + 1'000'000;  // threads start first
  const std::uint64_t t0 = start + kWarmupNs;       // recording opens
  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t swap_at = t0 + (deadline - t0) / 2;
  std::vector<std::thread> threads;
  for (std::size_t j = 0; j < kConnections; ++j) {
    threads.emplace_back([&, j] {
      Span conn("bench.conn", parent);
      Sender& s = *senders[j];
      Client& client = *clients_[j];
      bool swap_pending = swap_once && j == 0;
      std::uint64_t prev_done = 0;
      const double offset =
          period_ns * static_cast<double>(j) / static_cast<double>(kConnections);
      for (std::uint64_t i = 0;; ++i) {
        const std::uint64_t due =
            start + static_cast<std::uint64_t>(offset +
                                               period_ns * static_cast<double>(i));
        if (due >= deadline) break;
        if (swap_pending && prev_done >= swap_at) {
          swap_pending = false;
          const std::uint64_t b = now_ns();
          try {
            Span span("serve.swap");
            client.swap(config_.model, config_.model_file);
            s.swap_ms.push_back(static_cast<double>(now_ns() - b) * 1e-6);
          } catch (const std::exception&) {
            ++s.swap_failed;
          }
          prev_done = now_ns();
        }
        if (due > now_ns()) {
          Span span("serve.gen.wait");
          sleep_until_ns(due);
        }
        if (due < t0) {
          prev_done = warm_one(client, probes_, s);
          continue;
        }
        const std::uint64_t sent = now_ns();
        // Lateness of the generator's own making: the send came after both
        // its due time and the previous response.
        const std::uint64_t ready = std::max(due, prev_done);
        s.gen_lag.record(sent > ready ? sent - ready : 0);
        if (sent > deadline) ++s.backlog;
        prev_done = send_one(client, probes_, s, due);
      }
      if (swap_pending) ++s.swap_failed;  // the swap never happened
    });
  }
  for (auto& t : threads) t.join();
  return merge(senders, seconds, sampled);
}

std::uint64_t Generator::attempted() const {
  std::uint64_t n = 0;
  for (const Phase* p : {&c1, &c4, &open1k, &open2k, &swap}) n += p->sent();
  for (const Phase& p : rungs) n += p.sent();
  return n;
}

std::uint64_t Generator::failed() const {
  std::uint64_t n = 0;
  for (const Phase* p : {&c1, &c4, &open1k, &open2k, &swap}) n += p->failed();
  for (const Phase& p : rungs) n += p.failed();
  return n;
}

std::uint64_t hash_samples(const std::vector<double>& samples) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double v : samples) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

varpred::measure::BenchmarkRuns runs_of(const Probe& req) {
  varpred::measure::BenchmarkRuns runs;
  runs.benchmark = req.benchmark;
  runs.runtimes = req.runtimes;
  runs.counters = varpred::ml::Matrix(req.runtimes.size(), req.n_metrics);
  for (std::size_t r = 0; r < req.runtimes.size(); ++r) {
    for (std::size_t m = 0; m < req.n_metrics; ++m) {
      runs.counters.at(r, m) = req.counters[r * req.n_metrics + m];
    }
  }
  return runs;
}

std::size_t recheck(const varpred::serve::ModelRegistry& registry,
                    const std::string& model, const std::vector<Probe>& probes,
                    const std::vector<Sampled>& sampled) {
  std::size_t bad = 0;
  for (const Sampled& s : sampled) {
    const auto loaded = registry.get(model, s.version);
    if (loaded == nullptr) {
      ++bad;
      continue;
    }
    const Probe& req = probes[s.probe];
    Rng rng(s.seed);
    const auto direct = loaded->predictor.predict_distribution(
        runs_of(req), req.n_samples, rng);
    if (hash_samples(direct) != s.hash) ++bad;
  }
  return bad;
}

}  // namespace perfbench
