// perfbench: one end-to-end benchmark for varpred.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --p99-limit-ms L --work-dir DIR
//
// Every workload is one varpred session in one process: set up (measure the
// corpora, train and save a transfer model, build the probe sets from
// --seed), then eight rounds of an eval slice (leave-one-benchmark-out
// passes through the library's evaluator) and one closed-loop repetition
// against an in-process serve::Server (serving.hpp). The workloads differ in
// what they evaluate and which model they serve:
//
//   logo_trees  UC1 on intel, PearsonRnd with RF and with XGBoost (tree fit
//               is nearly all of the time); serves PearsonRnd+RF.
//   logo_knn    kNN with all four representations, UC1 on intel and amd
//               and UC2 both ways, all three scores; serves Histogram+kNN,
//               which bypasses the moment-based reconstructs.
//   serve_mix   the served model's own UC2 cell; serves the paper's
//               PearsonRnd+kNN amd->intel model.
//
// --trace 0 prints the end-to-end metrics; --trace 1 first runs an untraced
// eval pass and closed-loop repetitions, then one eval pass recomposed from
// the layers' calls, three serve rounds of every phase and a ladder climb
// with spans recorded, and prints the per-layer metrics (which include the
// serving figures whose run-to-run spread is too wide to bound). The last
// line of standard output is one JSON object. A failed output check prints
// {"correct": false, ...} without metrics and exits 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "arith.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/crosssystem.hpp"
#include "logo.hpp"
#include "measure/corpus.hpp"
#include "measure/system_model.hpp"
#include "obs/obs.hpp"
#include "obs/quality.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serving.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;
using varpred::core::ModelKind;
using varpred::core::ReprKind;
namespace measure = varpred::measure;
namespace serve = varpred::serve;

constexpr std::size_t kCorpusRuns = 1000;     // runs per benchmark
constexpr std::uint64_t kCorpusSeed = 7;      // `varpred evaluate`'s corpus
constexpr std::size_t kSetupRepeats = 5;      // setup_s is their median
constexpr std::size_t kRounds = 8;            // eval slice + serve round
constexpr std::size_t kProbeSets = 512;       // distinct request probe sets
constexpr std::size_t kProbeRuns = 10;        // runs per probe set
constexpr std::uint32_t kServeSamples = 2000; // samples per response
const char* const kServedName = "served";

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  double p99_limit_ms = 0.0;
  std::string work_dir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "logo_trees|logo_knn|serve_mix --seed N --seconds S "
               "--trace 0|1 --p99-limit-ms L --work-dir DIR\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[6] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    try {
      if (flag == "--workload") {
        a.workload = v;
        have[0] = true;
      } else if (flag == "--seed") {
        a.seed = varpred::require_u64_flag(flag, v);
        have[1] = true;
      } else if (flag == "--seconds") {
        a.seconds = varpred::require_finite_double_flag(flag, v);
        have[2] = a.seconds > 0.0;
      } else if (flag == "--trace") {
        const auto t = varpred::require_u64_flag(flag, v);
        if (t > 1) usage("--trace takes 0 or 1");
        a.trace = t == 1;
        have[3] = true;
      } else if (flag == "--p99-limit-ms") {
        a.p99_limit_ms = varpred::require_finite_double_flag(flag, v);
        have[4] = a.p99_limit_ms > 0.0;
      } else if (flag == "--work-dir") {
        a.work_dir = v;
        have[5] = !a.work_dir.empty();
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
  }
  if (argc % 2 != 1 || !std::all_of(std::begin(have), std::end(have),
                                    [](bool b) { return b; })) {
    usage("every flag needs a valid value");
  }
  return a;
}

struct Workload {
  const char* name;
  ReprKind served_repr;
  ModelKind served_model;
  std::function<std::vector<Cell>(const measure::Corpus& intel,
                                   const measure::Corpus& amd)>
      cells;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"logo_trees", ReprKind::kPearson, ModelKind::kRandomForest,
       [](const measure::Corpus& intel, const measure::Corpus&) {
         return std::vector<Cell>{
             {&intel, nullptr, ReprKind::kPearson, ModelKind::kRandomForest},
             {&intel, nullptr, ReprKind::kPearson, ModelKind::kXgBoost}};
       }},
      {"logo_knn", ReprKind::kHistogram, ModelKind::kKnn,
       [](const measure::Corpus& intel, const measure::Corpus& amd) {
         std::vector<Cell> cells;
         for (const ReprKind r : varpred::core::extended_repr_kinds()) {
           cells.push_back({&intel, nullptr, r, ModelKind::kKnn, true});
           cells.push_back({&amd, nullptr, r, ModelKind::kKnn, true});
           cells.push_back({&amd, &intel, r, ModelKind::kKnn, true});
           cells.push_back({&intel, &amd, r, ModelKind::kKnn, true});
         }
         return cells;
       }},
      {"serve_mix", ReprKind::kPearson, ModelKind::kKnn,
       [](const measure::Corpus& intel, const measure::Corpus& amd) {
         return std::vector<Cell>{
             {&amd, &intel, ReprKind::kPearson, ModelKind::kKnn}};
       }},
  };
  return all;
}

/// Inputs of one run. The corpora are the fixed ones `varpred evaluate`
/// measures, so eval passes repeat the same work in every run; the seed
/// makes the serving inputs (probe sets, request order, reconstruction
/// seeds).
struct Setup {
  measure::Corpus intel;
  measure::Corpus amd;
  std::vector<Probe> probes;
  std::string model_file;
  double corpus_s = 0.0;
  double seconds = 0.0;
};

Setup set_up(const Workload& w, std::uint64_t seed,
             const std::string& model_file) {
  Setup s;
  const std::uint64_t t0 = now_ns();
  s.intel = measure::build_corpus(measure::SystemModel::intel(), kCorpusRuns,
                                  kCorpusSeed);
  s.amd = measure::build_corpus(measure::SystemModel::amd(), kCorpusRuns,
                                kCorpusSeed);
  s.corpus_s = static_cast<double>(now_ns() - t0) * 1e-9;
  varpred::core::CrossSystemConfig config;
  config.repr = w.served_repr;
  config.model = w.served_model;
  varpred::core::CrossSystemPredictor predictor(config);
  predictor.train_all(s.amd, s.intel);
  {
    std::ofstream out(model_file, std::ios::binary | std::ios::trunc);
    predictor.save(out);
    if (!out) throw std::runtime_error("cannot write " + model_file);
  }
  s.model_file = model_file;
  s.probes = make_probes(measure::SystemModel::amd(), kServedName, kProbeSets,
                         kProbeRuns, kServeSamples,
                         varpred::seed_combine(seed, 3));
  s.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return s;
}

/// Metrics in print order, each with its unit.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(std::string name, double value, std::string unit) {
    items.push_back({std::move(name), {value, std::move(unit)}});
  }
};

/// Collected failures of output checks; any makes the run fail.
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  if (correct) {
    for (std::size_t i = 0; i < m.items.size(); ++i) {
      const auto& [name, vu] = m.items[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", name.c_str(), vu.first,
                  vu.second.c_str());
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

void print_phase(const Phase& p) {
  const auto lat = p.pooled(&Rep::latency);
  std::printf("  %-7s rate=%-6.0f reps=%zu n=%-6llu failed=%llu p50=%.3fms "
              "p99=%.3fms (%llu beyond) gen_lag.p99=%.3fms queue.p50=%.3fms "
              "compute.p50=%.3fms\n",
              p.label.c_str(), p.rate_qps, p.reps.size(),
              static_cast<unsigned long long>(p.sent()),
              static_cast<unsigned long long>(p.failed()), p.latency_ms(0.5),
              p.latency_ms(0.99),
              static_cast<unsigned long long>(samples_beyond(lat.count, 0.99)),
              static_cast<double>(p.pooled(&Rep::gen_lag).quantile(0.99)) * 1e-6,
              static_cast<double>(p.pooled(&Rep::queue).quantile(0.5)) * 1e-6,
              static_cast<double>(p.pooled(&Rep::compute).quantile(0.5)) * 1e-6);
  std::printf("          p99 of each rep, ms:");
  for (const Rep& r : p.reps) {
    std::printf(" %.2f", static_cast<double>(r.latency.quantile(0.99)) * 1e-6);
  }
  std::printf("\n");
}

/// Checks the serving phases that ran, and the swap phase in particular.
void check_serving(const Generator& g, const serve::ModelRegistry& reg,
                   const std::vector<Probe>& probes, Checks& checks) {
  checks.expect(g.failed() == 0, "serving requests or swaps failed");
  for (const Phase* p : {&g.c1, &g.c4, &g.open1k, &g.open2k, &g.swap}) {
    if (p->reps.empty()) continue;
    checks.expect(tail_reportable(p->pooled(&Rep::latency).count, 0.99),
                  p->label + " p99 has fewer than 10 samples beyond it");
  }
  for (const Rep& rep : g.swap.reps) {
    checks.expect(rep.versions.size() >= 2 && rep.swap_ms.size() == 1,
                  "a swap repetition did not swap or saw one version");
  }
  const std::size_t bad = recheck(reg, kServedName, probes, g.sampled);
  checks.expect(!g.sampled.empty() && bad == 0,
                "served responses differ from direct predict_distribution (" +
                    std::to_string(bad) + " of " +
                    std::to_string(g.sampled.size()) + ")");
}

struct EvalPart {
  std::vector<double> seconds;  ///< one per pass
  double total_s = 0.0;
  PassResult first;
  PassResult last;
};

/// Runs passes until the part's total time reaches `until_s` (at least one
/// pass per run); every pass must repeat the previous one's KS vectors
/// bitwise.
void eval_until(const std::vector<Cell>& cells, double until_s,
                EvalPart& part, Checks& checks) {
  while (part.seconds.empty() || part.total_s < until_s) {
    PassResult pass = run_pass(cells);
    part.seconds.push_back(pass.seconds);
    part.total_s += pass.seconds;
    if (part.seconds.size() == 1) {
      part.first = pass;
    } else {
      checks.expect(pass.ks == part.last.ks,
                    "eval pass KS differs from the previous pass");
    }
    part.last = std::move(pass);
  }
}

std::size_t versions_held(const serve::ModelRegistry& reg) {
  std::size_t n = 0;
  while (reg.get(kServedName, n + 1) != nullptr) ++n;
  return n;
}

/// Per-layer metrics of the traced run that come from spans.
void span_metrics(const std::vector<SpanRecord>& spans, std::uint32_t eval_id,
                  std::uint64_t eval_ns, const PassCounts& counts,
                  Metrics& m) {
  const auto totals = totals_by_name(spans);
  const auto total = [&](const std::string& name) -> const SpanTotals& {
    static const SpanTotals none;
    const auto it = totals.find(name);
    return it == totals.end() ? none : it->second;
  };
  const auto mean_us = [&](const std::string& name) {
    const SpanTotals& t = total(name);
    return t.calls == 0 ? 0.0
                        : static_cast<double>(t.total_ns) * 1e-3 /
                              static_cast<double>(t.calls);
  };
  std::uint64_t fit_ns = 0;
  for (const char* model : {"RF", "XGBoost", "kNN"}) {
    const SpanTotals& t = total(std::string("ml.fit.") + model);
    fit_ns += t.total_ns;
    m.add(std::string("fit.ms.") + model, ms(t.total_ns), "ms");
  }
  m.add("fit.calls", static_cast<double>(counts.fit_calls), "count");
  m.add("fit.cells", counts.fit_cells, "count");
  m.add("fit.ns_per_cell",
        counts.fit_cells > 0 ? static_cast<double>(fit_ns) / counts.fit_cells
                             : 0.0,
        "ns");
  const std::uint64_t fit_cover = covered_by(
      spans, eval_id,
      [](std::string_view n) { return n.starts_with("ml.fit."); });
  m.add("fit.cover_frac",
        eval_ns > 0 ? static_cast<double>(fit_cover) /
                          static_cast<double>(eval_ns)
                    : 0.0,
        "fraction");
  m.add("profile.us", mean_us("core.profile"), "us");
  for (const char* r : {"Histogram", "PyMaxEnt", "PearsonRnd", "Quantile"}) {
    m.add(std::string("encode.us.") + r,
          mean_us(std::string("core.encode.") + r), "us");
  }
  for (const char* model : {"RF", "XGBoost", "kNN"}) {
    m.add(std::string("predict.us.") + model,
          mean_us(std::string("ml.predict.") + model), "us");
  }
  for (const char* r : {"Histogram", "PyMaxEnt", "PearsonRnd", "Quantile"}) {
    m.add(std::string("reconstruct.us.") + r,
          mean_us(std::string("core.reconstruct.") + r), "us");
  }
  const char* types[] = {"normal", "I", "II", "III", "IV", "V", "VI", "VII"};
  for (std::size_t t = 0; t < 8; ++t) {
    m.add(std::string("pearson.type_count.") + types[t],
          static_cast<double>(counts.pearson_types[t]), "count");
  }
  m.add("maxent.uniform_fallbacks",
        static_cast<double>(counts.maxent_uniform_fallbacks), "count");
  m.add("score.ks_us", mean_us("stats.ks"), "us");
  m.add("score.w1_us", mean_us("stats.w1"), "us");
  m.add("score.overlap_us", mean_us("stats.overlap"), "us");
}

/// Mean of a snapshot in microseconds.
double mean_us(const varpred::obs::HdrSnapshot& h) {
  return h.count == 0 ? 0.0
                      : static_cast<double>(h.sum) * 1e-3 /
                            static_cast<double>(h.count);
}

/// Codec cost and frame sizes of a predict round trip, timed around the
/// protocol's public calls on the probe sets and one response each.
void codec_metrics(const std::vector<Probe>& probes,
                   const serve::ModelRegistry& reg, Metrics& m) {
  const auto model = reg.get(kServedName);
  double ns = 0.0, req_bytes = 0.0, resp_bytes = 0.0;
  const std::size_t n = std::min<std::size_t>(probes.size(), 128);
  for (std::size_t i = 0; i < n; ++i) {
    Probe req = probes[i];
    req.seed = i + 1;
    serve::PredictResponse resp;
    resp.version = model->version;
    varpred::Rng rng(req.seed);
    resp.samples =
        model->predictor.predict_distribution(runs_of(req), req.n_samples, rng);
    const std::uint64_t t0 = now_ns();
    const std::string req_frame =
        serve::encode_frame(serve::MsgType::kPredict, 1, req.body());
    const auto parsed_req = serve::PredictRequest::parse(
        std::string_view(req_frame).substr(13));
    const std::string resp_frame =
        serve::encode_frame(serve::MsgType::kPredictOk, 1, resp.body());
    const auto parsed_resp = serve::PredictResponse::parse(
        std::string_view(resp_frame).substr(13));
    ns += static_cast<double>(now_ns() - t0);
    if (parsed_req.seed != req.seed ||
        parsed_resp.samples.size() != resp.samples.size()) {
      throw std::runtime_error("codec round trip changed a message");
    }
    req_bytes += static_cast<double>(req_frame.size());
    resp_bytes += static_cast<double>(resp_frame.size());
  }
  const double dn = static_cast<double>(n);
  m.add("serve.codec_us", ns * 1e-3 / dn, "us");
  m.add("serve.req_bytes", req_bytes / dn, "bytes");
  m.add("serve.resp_bytes", resp_bytes / dn, "bytes");
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const auto& cand : workloads()) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) usage(("unknown workload " + args.workload).c_str());
  // Lengths scale with --seconds: the closed-loop repetitions take about a
  // third of it and the eval passes the rest (but at least one pass).
  const double unit_s = args.seconds / 25.0;
  const double eval_budget_s = 0.4 * args.seconds;
  const std::string model_file =
      args.work_dir + "/" + w->name + "-model.bin";

  // Set-up, several times; the last one's inputs are used.
  std::vector<double> setup_s, corpus_s;
  Setup setup;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    setup = set_up(*w, args.seed, model_file);
    setup_s.push_back(setup.seconds);
    corpus_s.push_back(setup.corpus_s);
  }
  const std::vector<Cell> cells = w->cells(setup.intel, setup.amd);
  varpred::obs::QualityRecorder::set_enabled(std::any_of(
      cells.begin(), cells.end(), [](const Cell& c) { return c.quality; }));

  serve::ModelRegistry registry;
  registry.publish_file(kServedName, setup.model_file);
  serve::Server server(registry, serve::ServerConfig{});
  GeneratorConfig gen_config;
  gen_config.model = kServedName;
  gen_config.model_file = setup.model_file;
  gen_config.unit_s = unit_s;
  gen_config.p99_limit_ms = args.p99_limit_ms;
  gen_config.seed = varpred::seed_combine(args.seed, 4);
  Generator gen(server.port(), setup.probes, gen_config);
  // varpredd serves with observability in summary mode by default.
  const auto serving = [](auto&& step) {
    varpred::obs::set_mode(varpred::obs::Mode::kSummary);
    step();
    varpred::obs::set_mode(varpred::obs::Mode::kOff);
  };
  const auto check_spots = [&](const PassResult& pass, Checks& checks) {
    const std::size_t bad =
        spot_check(cells, pass, 2, varpred::seed_combine(args.seed, 5));
    checks.expect(bad == 0, std::to_string(bad) +
                                " spot-checked folds differ from the pass");
  };

  Checks checks;
  Metrics m;
  std::uint64_t attempted = 0, failed = 0;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d workers=%zu\n",
              w->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              varpred::ThreadPool::global().worker_count());
  for (const Cell& c : cells) std::printf("  cell %s\n", c.label().c_str());

  if (!args.trace) {
    // Rounds: an eval slice, then one closed-loop repetition, so each
    // figure's samples are spread over the whole run.
    EvalPart eval;
    for (std::size_t round = 0; round < kRounds; ++round) {
      eval_until(cells, eval_budget_s * static_cast<double>(round + 1) /
                            static_cast<double>(kRounds),
                 eval, checks);
      serving([&] { gen.c1_round(); });
    }
    check_spots(eval.first, checks);
    check_serving(gen, registry, setup.probes, checks);
    attempted = eval.seconds.size() * cells.size();
    std::printf("eval: %zu passes, median %.4fs, ks_mean %.6f\n",
                eval.seconds.size(), median(eval.seconds),
                eval.first.ks_mean());
    print_phase(gen.c1);
    m.add("setup_s", median(setup_s), "s");
    m.add("peak_rss_mb",
          static_cast<double>(varpred::obs::peak_rss_kb()) / 1024.0, "MB");
    m.add("eval_s", median(eval.seconds), "s");
    m.add("ks_mean", eval.first.ks_mean(), "score");
    m.add("c1_p50_ms", gen.c1.latency_ms(0.5), "ms");
  } else {
    // Untraced reference for the overhead figures, then the traced run:
    // one eval pass recomposed from the layers' calls, three serve rounds
    // and the ladder. The reference closes its connections first, so no
    // more than kConnections are open at a time.
    const PassResult plain = run_pass(cells);
    double c1_plain = 0.0;
    {
      Generator plain_gen(server.port(), setup.probes, gen_config);
      serving([&] {
        for (int i = 0; i < 3; ++i) plain_gen.c1_round();
      });
      check_serving(plain_gen, registry, setup.probes, checks);
      c1_plain = plain_gen.c1.latency_ms(0.5);
      attempted += plain_gen.attempted();
      failed += plain_gen.failed();
    }

    Tracer tracer;
    PassCounts counts;
    varpred::ThreadPool& pool = varpred::ThreadPool::global();
    std::uint32_t root_id = 0, eval_id = 0;
    std::uint64_t eval_ns = 0;
    PassResult traced;
    Tracer::install(&tracer);
    {
      Span root("bench.run");
      root_id = root.id();
      const auto pool_before = pool.stats();
      {
        Span eval("bench.eval");
        eval_id = eval.id();
        const std::uint64_t t0 = now_ns();
        traced = run_pass_traced(cells, counts);
        eval_ns = now_ns() - t0;
      }
      // Workers book idle time only when they wake, so the pass's idle
      // time is its worker capacity less the busy time it booked.
      const auto pool_after = pool.stats();
      const double busy =
          static_cast<double>(pool_after.busy_ns - pool_before.busy_ns);
      const double capacity =
          static_cast<double>(pool.worker_count()) * static_cast<double>(eval_ns);
      m.add("pool.busy_frac", busy / capacity, "fraction");
      m.add("pool.idle_s", std::max(capacity - busy, 0.0) * 1e-9, "s");
      m.add("pool.tasks",
            static_cast<double>(pool_after.chunks - pool_before.chunks),
            "count");
      Span part("bench.serve");
      serving([&] {
        for (int i = 0; i < 3; ++i) gen.round();
        gen.ladder();
      });
    }
    Tracer::install(nullptr);
    checks.expect(traced.ks == plain.ks,
                  "traced pass KS differs from the evaluator's");
    check_spots(plain, checks);
    check_serving(gen, registry, setup.probes, checks);
    attempted += 2 * cells.size();

    const auto spans = tracer.spans();
    std::printf("traced: %zu spans; per name: calls total_ms self_ms\n",
                spans.size());
    for (const auto& [name, t] : totals_by_name(spans)) {
      std::printf("  %-28s %9llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.calls), ms(t.total_ns),
                  ms(t.self_ns));
    }
    for (const Phase* p :
         {&gen.c1, &gen.c4, &gen.open1k, &gen.open2k, &gen.swap}) {
      print_phase(*p);
    }
    const RungLimits limits{args.p99_limit_ms, kGenLagLimitMs, kConnections};
    std::printf("  ladder:");
    for (const Phase& p : gen.rungs) {
      std::printf(" %.0f%s(p99 %.2fms)", p.rate_qps,
                  rung_met(p.rung(), limits) ? "" : " missed",
                  p.latency_ms(0.99));
    }
    std::printf(" -> %.0f\n", gen.max_qps);
    span_metrics(spans, eval_id, eval_ns, counts, m);

    // Serving layers, from the closed-loop phase: the server reports queue
    // and compute time per response; the rest of the client's latency is
    // unattributed (codec, socket, scheduling).
    const auto queue = gen.c1.pooled(&Rep::queue);
    const auto compute = gen.c1.pooled(&Rep::compute);
    const auto client = gen.c1.pooled(&Rep::latency);
    const auto us = [](const varpred::obs::HdrSnapshot& h, double q) {
      return static_cast<double>(h.quantile(q)) * 1e-3;
    };
    m.add("serve.queue_us.p50", us(queue, 0.5), "us");
    m.add("serve.queue_us.p99", us(queue, 0.99), "us");
    m.add("serve.queue_us.mean", mean_us(queue), "us");
    m.add("serve.compute_us.p50", us(compute, 0.5), "us");
    m.add("serve.compute_us.p99", us(compute, 0.99), "us");
    m.add("serve.compute_us.mean", mean_us(compute), "us");
    m.add("serve.client_us.mean", mean_us(client), "us");
    m.add("serve.unattributed_us",
          mean_us(client) - mean_us(queue) - mean_us(compute), "us");
    codec_metrics(setup.probes, registry, m);
    auto lag = gen.open1k.pooled(&Rep::gen_lag);
    lag.merge(gen.open2k.pooled(&Rep::gen_lag));
    lag.merge(gen.swap.pooled(&Rep::gen_lag));
    m.add("serve.gen_lag_ms.p99",
          static_cast<double>(lag.quantile(0.99)) * 1e-6, "ms");
    std::vector<double> loads;
    for (int i = 0; i < 5; ++i) {
      serve::ModelRegistry fresh;
      const std::uint64_t t0 = now_ns();
      fresh.publish_file(kServedName, setup.model_file);
      loads.push_back(ms(now_ns() - t0));
    }
    m.add("serve.swap_load_ms", median(loads), "ms");
    m.add("serve.versions_held", static_cast<double>(versions_held(registry)),
          "count");
    m.add("measure.corpus_s", median(corpus_s), "s");

    const auto root = std::find_if(spans.begin(), spans.end(),
                                   [&](const SpanRecord& s) {
                                     return s.id == root_id;
                                   });
    const double root_ns = static_cast<double>(root->end_ns - root->begin_ns);
    const std::uint64_t claimed = covered_by(
        spans, root_id,
        [](std::string_view n) { return !n.starts_with("bench."); });
    m.add("unattributed_frac", 1.0 - static_cast<double>(claimed) / root_ns,
          "fraction");
    m.add("trace_overhead_frac.eval",
          (traced.seconds - plain.seconds) / plain.seconds, "fraction");
    m.add("trace_overhead_frac.c1",
          (gen.c1.latency_ms(0.5) - c1_plain) / c1_plain, "fraction");
    // The serving figures beyond c1's median: reported here, not bounded,
    // as their run-to-run spread on a shared machine exceeds any usable
    // bound.
    m.add("c1_p99_ms", gen.c1.latency_ms(0.99), "ms");
    m.add("c4_qps", gen.c4.qps(), "1/s");
    m.add("open1k_p50_ms", gen.open1k.latency_ms(0.5), "ms");
    m.add("open1k_p99_ms", gen.open1k.latency_ms(0.99), "ms");
    m.add("open2k_p99_ms", gen.open2k.latency_ms(0.99), "ms");
    m.add("swap1k_p99_ms", gen.swap.latency_ms(0.99), "ms");
    std::vector<double> swap_ms;
    for (const Rep& rep : gen.swap.reps) {
      swap_ms.insert(swap_ms.end(), rep.swap_ms.begin(), rep.swap_ms.end());
    }
    m.add("swap_ms", median(swap_ms), "ms");
    m.add("max_qps", gen.max_qps, "1/s");
  }
  server.stop();
  std::remove(model_file.c_str());

  for (const auto& [name, vu] : m.items) {
    checks.expect(std::isfinite(vu.first), name + " is not finite");
    std::printf("  %-28s %16.6f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  for (const auto& f : checks.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = checks.failures.empty();
  attempted += gen.attempted();
  failed += gen.failed();
  print_result(correct, std::max<std::uint64_t>(attempted, 1), failed, m);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
