// Load generation against an in-process serve::Server over loopback TCP.
//
// The generator keeps kConnections client connections open for the whole
// run. A serve round runs one repetition of each of these phases, at
// absolute rates fixed here:
//
//   c1       closed loop on one connection: send, wait, send again;
//   c4       closed loop on all connections (completed requests/s);
//   open1k   open loop on all connections, 1000 requests/s in aggregate;
//   open2k   open loop, 2000 requests/s;
//   swap     open loop at 1000 requests/s while one connection hot-swaps
//            the model file once, mid-repetition.
//
// An untraced run plays only c1 repetitions; the traced run plays every
// phase.
//
// A run plays several rounds spread over its length and pools each phase's
// repetitions, so a few slow seconds on a shared machine make a small share
// of a phase's samples instead of a whole phase. Each phase's pooled sample
// must hold at least ten samples beyond its p99.
//
// The ladder is climbed once per run: one repetition at each rate of
// kLadderQps from 2000 requests/s up, until two rungs in a row miss the
// limits (or down from 2000 while rungs miss). max_qps is the highest rung
// met.
//
// Open-loop sends follow a fixed schedule; a request's latency counts from
// its scheduled send time, so a stall is charged to every request it
// delays. Each connection keeps one request in flight, so a server that
// falls behind builds a backlog of unsent requests, not a queue of refused
// ones. The generator's own lateness (a send later than both its schedule
// and the previous response) is measured apart. Every open-loop repetition
// first runs its schedule briefly without recording, so the measured
// window opens under load.
//
// Requests are drawn, seeded, from a pool of probe sets covering every
// benchmark, each send with a fresh reconstruction seed, so no response can
// be reused. A seeded sample of the responses is recomputed afterwards by a
// direct CrossSystemPredictor::predict_distribution call with the same
// seed and model version and must match bitwise.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arith.hpp"
#include "measure/corpus.hpp"
#include "measure/system_model.hpp"
#include "obs/hdr.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace perfbench {

inline constexpr std::size_t kConnections = 4;
inline constexpr double kOpen1kQps = 1000.0;
inline constexpr double kOpen2kQps = 2000.0;
/// Ladder rates (requests/s), ascending, about 10% apart; kOpen2kQps is one.
inline constexpr std::array<double, 18> kLadderQps = {
    1000, 1100, 1200, 1350, 1500, 1650, 1800, 2000, 2200,
    2400, 2650, 2900, 3200, 3500, 3850, 4250, 4700, 5200};
/// Above this generator lateness (p99) a rate point counts as not kept.
inline constexpr double kGenLagLimitMs = 2.0;

/// One probe set the generator can send; its seed is set per send.
using Probe = varpred::serve::PredictRequest;

/// Builds `count` probe sets: benchmark drawn uniformly, `probe_runs` runs
/// measured on `system` under a fresh seed each, `n_samples` to
/// reconstruct.
std::vector<Probe> make_probes(const varpred::measure::SystemModel& system,
                               const std::string& model, std::size_t count,
                               std::size_t probe_runs, std::uint32_t n_samples,
                               std::uint64_t seed);

/// Tallies of one repetition (histograms in nanoseconds).
struct Rep {
  double seconds = 0.0;  ///< recorded window
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::uint64_t backlog = 0;           ///< due but unsent at the deadline
  varpred::obs::HdrSnapshot latency;   ///< from scheduled (open) or sent
  varpred::obs::HdrSnapshot queue;     ///< server-reported queue wait
  varpred::obs::HdrSnapshot compute;   ///< server-reported compute
  varpred::obs::HdrSnapshot gen_lag;   ///< generator's own lateness
  std::vector<double> swap_ms;         ///< swap round trips
  std::uint64_t swap_failed = 0;       ///< swaps rejected or not made
  std::vector<std::uint64_t> versions;  ///< distinct versions served
};

/// One phase: its repetitions, pooled.
struct Phase {
  std::string label;
  double rate_qps = 0.0;  ///< 0 for closed loop
  std::vector<Rep> reps;

  /// All repetitions' samples of `h` together.
  varpred::obs::HdrSnapshot pooled(varpred::obs::HdrSnapshot Rep::*h) const;
  /// q-quantile of the pooled latency, in milliseconds.
  double latency_ms(double q) const;
  /// Requests completed per second of recorded window.
  double qps() const;
  std::uint64_t sent() const;
  std::uint64_t failed() const;
  /// The phase as one rate point of the ladder.
  Rung rung() const;
};

/// A served response kept for the recomputation check.
struct Sampled {
  std::size_t probe = 0;
  std::uint64_t seed = 0;
  std::uint64_t version = 0;
  std::uint64_t hash = 0;  ///< FNV-1a over the sample bytes
};

struct GeneratorConfig {
  std::string model;       ///< registry name
  std::string model_file;  ///< checksummed file the swap phase publishes
  double unit_s = 1.0;     ///< repetition lengths are multiples of this
  double p99_limit_ms = 0.0;
  std::uint64_t seed = 0;
};

class Generator {
 public:
  /// Opens kConnections connections to the server on `port`. `probes` must
  /// outlive the generator.
  Generator(std::uint16_t port, const std::vector<Probe>& probes,
            GeneratorConfig config);

  /// One c1 repetition.
  void c1_round();
  /// One repetition of every phase.
  void round();
  /// One ladder climb.
  void ladder();

  Phase c1{"c1", 0.0, {}};
  Phase c4{"c4", 0.0, {}};
  Phase open1k{"open1k", kOpen1kQps, {}};
  Phase open2k{"open2k", kOpen2kQps, {}};
  Phase swap{"swap", kOpen1kQps, {}};
  std::vector<Phase> rungs;  ///< ladder rungs in the order run
  double max_qps = 0.0;
  std::vector<Sampled> sampled;

  std::uint64_t attempted() const;
  std::uint64_t failed() const;

 private:
  Rep closed_rep(std::size_t connections, double seconds, double min_sent);
  Rep open_rep(double rate, double seconds, bool swap);
  RungLimits limits() const;

  const std::vector<Probe>& probes_;
  GeneratorConfig config_;
  std::vector<std::unique_ptr<varpred::serve::Client>> clients_;
  std::uint64_t stream_ = 0;  // request stream of the next repetition
};

/// FNV-1a over the bytes of a sample vector.
std::uint64_t hash_samples(const std::vector<double>& samples);

/// The runs a predict request carries, rebuilt the way the server does.
varpred::measure::BenchmarkRuns runs_of(const Probe& request);

/// Recomputes each sampled response directly at its model version; returns
/// the number that differ (a missing version counts as differing).
std::size_t recheck(const varpred::serve::ModelRegistry& registry,
                    const std::string& model, const std::vector<Probe>& probes,
                    const std::vector<Sampled>& sampled);

}  // namespace perfbench
