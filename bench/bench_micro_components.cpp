// Component micro-benchmarks (google-benchmark): throughput of the
// statistical kernels, reconstruction paths, the simulator, and the three
// regressors. These are engineering benchmarks, not paper figures -- they
// document where the pipeline spends its time.
#include <benchmark/benchmark.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "bench_common.hpp"
#include "common/thread_pool.hpp"
#include "core/evalcache.hpp"
#include "core/varpred.hpp"
#include "rngdist/samplers.hpp"
#include "maxent/maxent.hpp"
#include "ml/knn.hpp"
#include "serve/server.hpp"

namespace {

using namespace varpred;

std::vector<double> make_sample(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rngdist::normal(rng, 1.0, 0.02);
  return out;
}

// ---------------------------------------------------------------------------
// Parallel runtime: chunked scheduler vs the pre-rebuild per-index one.
//
// LegacyPerIndexPool reimplements the scheduler this repo shipped before the
// chunked rebuild: one queued std::function per helper, and every iteration
// pays a shared fetch_add plus a std::function dispatch. It exists only as
// the baseline for the BM_ParallelFor* pair below (the body is captured by
// value here, sidestepping the dangling-capture bug the rebuild fixed).
class LegacyPerIndexPool {
 public:
  explicit LegacyPerIndexPool(std::size_t workers) {
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  ~LegacyPerIndexPool() {
    {
      std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body) {
    struct Shared {
      std::atomic<std::size_t> next{0};
      std::atomic<std::size_t> done{0};
      std::mutex done_mutex;
      std::condition_variable done_cv;
    };
    auto shared = std::make_shared<Shared>();
    auto drain = [shared, n, body] {
      for (;;) {
        const std::size_t i =
            shared->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        body(i);
        if (shared->done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
          std::lock_guard lock(shared->done_mutex);
          shared->done_cv.notify_all();
        }
      }
    };
    {
      std::lock_guard lock(mutex_);
      const std::size_t helpers = std::min(threads_.size(), n - 1);
      for (std::size_t w = 0; w < helpers; ++w) tasks_.emplace_back(drain);
    }
    cv_.notify_all();
    drain();
    std::unique_lock lock(shared->done_mutex);
    shared->done_cv.wait(lock, [&] {
      return shared->done.load(std::memory_order_acquire) >= n;
    });
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
        if (stopping_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
    }
  }

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

constexpr std::size_t kLoopIters = 1u << 20;  // 1M trivial iterations
constexpr std::size_t kLoopWorkers = 4;

void BM_ParallelForPerIndexLegacy(benchmark::State& state) {
  LegacyPerIndexPool pool(kLoopWorkers);
  std::vector<double> out(kLoopIters);
  for (auto _ : state) {
    pool.parallel_for(kLoopIters, [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.0000001;
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLoopIters));
}
BENCHMARK(BM_ParallelForPerIndexLegacy)->Unit(benchmark::kMillisecond);

void BM_ParallelForChunked(benchmark::State& state) {
  ThreadPool pool(kLoopWorkers);
  std::vector<double> out(kLoopIters);
  for (auto _ : state) {
    pool.parallel_for(kLoopIters, [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.0000001;
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLoopIters));
}
BENCHMARK(BM_ParallelForChunked)->Unit(benchmark::kMillisecond);

void BM_ParallelReduceMoments(benchmark::State& state) {
  const auto xs = make_sample(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::compute_moments_parallel(xs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParallelReduceMoments)->Arg(1 << 17)->Arg(1 << 20);

void BM_Moments(benchmark::State& state) {
  const auto xs = make_sample(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::compute_moments(xs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Moments)->Arg(1000)->Arg(10000);

void BM_KsStatistic(benchmark::State& state) {
  const auto a = make_sample(static_cast<std::size_t>(state.range(0)), 1);
  const auto b = make_sample(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::ks_statistic(a, b));
  }
}
BENCHMARK(BM_KsStatistic)->Arg(1000)->Arg(2000);

void BM_KdeGrid(benchmark::State& state) {
  const auto xs = make_sample(1000, 3);
  const stats::Kde kde(xs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde.evaluate_grid(0.9, 1.1, 128));
  }
}
BENCHMARK(BM_KdeGrid);

void BM_PearsonSample(benchmark::State& state) {
  stats::Moments target;
  target.mean = 1.0;
  target.stddev = 0.02;
  target.skewness = 0.8;
  target.kurtosis = 4.5;  // type IV region
  const pearson::PearsonSampler sampler(target);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_PearsonSample);

void BM_PearsonConstruct(benchmark::State& state) {
  stats::Moments target;
  target.mean = 1.0;
  target.stddev = 0.02;
  target.skewness = 0.8;
  target.kurtosis = 4.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pearson::PearsonSampler(target));
  }
}
BENCHMARK(BM_PearsonConstruct);

// One PearsonRnd reconstruct at serve shape: the type IV target of
// BM_PearsonConstruct, sanitized, fitted and drawn 2000 times.
void BM_PearsonReconstruct(benchmark::State& state) {
  const std::vector<double> encoded = {1.0, 0.02, 0.8, 4.5};
  const core::PearsonRepr repr;
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(repr.reconstruct(encoded, 2000, rng));
  }
}
BENCHMARK(BM_PearsonReconstruct)->Unit(benchmark::kMicrosecond);

void BM_MaxEntSolve(benchmark::State& state) {
  stats::Moments target;
  target.mean = 1.0;
  target.stddev = 0.03;
  target.skewness = 0.5;
  target.kurtosis = 3.5;
  const auto raw = maxent::raw_moments_from_summary(target);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        maxent::MaxEntDensity(raw, 1.0 - 0.2, 1.0 + 0.2));
  }
}
BENCHMARK(BM_MaxEntSolve);

void BM_SimulateRun(benchmark::State& state) {
  const auto& system = measure::SystemModel::intel();
  const auto& bench = measure::benchmark_table()[0];
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure::simulate_run(bench, system, rng));
  }
}
BENCHMARK(BM_SimulateRun);

void BM_BuildProfile(benchmark::State& state) {
  const auto& system = measure::SystemModel::intel();
  const auto runs = measure::measure_benchmark(0, system, 100, 7);
  std::vector<std::size_t> idx(10);
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i * 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_profile(system, runs, idx));
  }
}
BENCHMARK(BM_BuildProfile);

// Production-shape corpora (60 benchmarks x 1000 runs, seed 7), the ones the
// UC2 amd->intel evaluation and the served transfer model train on.
const measure::Corpus& production_amd() {
  static const measure::Corpus corpus =
      measure::build_corpus(measure::SystemModel::amd(), 1000, 7);
  return corpus;
}

const measure::Corpus& production_intel() {
  static const measure::Corpus corpus =
      measure::build_corpus(measure::SystemModel::intel(), 1000, 7);
  return corpus;
}

// One cross-system feature row's profile: 1000 runs x 75 amd metrics (an
// odd count, so the kernel's scalar tail runs too).
void BM_BuildFullProfile(benchmark::State& state) {
  const auto& corpus = production_amd();
  const auto& runs = corpus.benchmarks[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_full_profile(*corpus.system, runs));
  }
}
BENCHMARK(BM_BuildFullProfile)->Unit(benchmark::kMicrosecond);

// The fold-shared cache of one UC2 amd->intel PearsonRnd evaluation: 60 full
// profiles plus encoded source and target distributions, on the global pool.
void BM_CrossSystemEvalCacheBuild(benchmark::State& state) {
  const auto& amd = production_amd();
  const auto& intel = production_intel();
  const core::CrossSystemConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::CrossSystemEvalCache::build(amd, intel, config));
  }
}
BENCHMARK(BM_CrossSystemEvalCacheBuild)->Unit(benchmark::kMillisecond);

ml::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  ml::Matrix m(rows, cols);
  Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

void BM_KnnFitPredict(benchmark::State& state) {
  const auto x = random_matrix(118, 272, 1);
  const auto y = random_matrix(118, 4, 2);
  const auto q = random_matrix(1, 272, 3);
  for (auto _ : state) {
    ml::KnnRegressor knn;
    knn.fit(x, y);
    benchmark::DoNotOptimize(knn.predict(q.row(0)));
  }
}
BENCHMARK(BM_KnnFitPredict);

// One production-shape training fold: fold 0 of the intel few-runs LOGO-CV
// (118 rows x 272 profile features, 4-wide PearsonRnd targets) with the
// fold's filtered sorted-column artifact, exactly what the evaluator hands a
// tree learner.
struct ProductionFold {
  ml::Matrix x;
  ml::Matrix y;
  std::shared_ptr<const ml::SortedColumns> presorted;
};

const ProductionFold& production_fold() {
  static const ProductionFold fold = [] {
    const auto corpus =
        measure::build_corpus(measure::SystemModel::intel(), 1000, 7);
    core::FewRunsConfig config;
    config.repr = core::ReprKind::kPearson;
    config.model = core::ModelKind::kRandomForest;  // cache carries presorted
    const auto cache = core::FewRunsEvalCache::build(corpus, config);
    std::vector<std::size_t> train;
    for (std::size_t b = 1; b < corpus.benchmarks.size(); ++b) {
      train.push_back(b);
    }
    const auto rows = cache.rows_for(train);
    ProductionFold f;
    f.x = cache.features.gather_rows(rows);
    for (const std::size_t b : train) {
      for (std::size_t rep = 0; rep < cache.replicates; ++rep) {
        f.y.push_row(cache.targets[b]);
      }
    }
    f.presorted = std::make_shared<const ml::SortedColumns>(
        cache.presorted->filtered(rows, /*remap=*/true));
    return f;
  }();
  return fold;
}

// Production RF (100 trees, depth 24, all features) and XGBoost (60 rounds,
// depth 6) fits, as core::make_model builds them.
void fit_production(benchmark::State& state, core::ModelKind kind) {
  const ProductionFold& fold = production_fold();
  for (auto _ : state) {
    auto model = core::make_model(kind, 1001);
    model->set_presorted(fold.presorted);
    model->fit(fold.x, fold.y);
    benchmark::DoNotOptimize(model->trained());
  }
}

void BM_ForestFit(benchmark::State& state) {
  fit_production(state, core::ModelKind::kRandomForest);
}
BENCHMARK(BM_ForestFit)->Unit(benchmark::kMillisecond);

void BM_GbtFit(benchmark::State& state) {
  fit_production(state, core::ModelKind::kXgBoost);
}
BENCHMARK(BM_GbtFit)->Unit(benchmark::kMillisecond);

// One 10-probe request from the amd system at the shape the end-to-end
// benchmark's serve_mix workload sends (75 metrics, 2000 samples asked).
serve::PredictRequest serve_request() {
  const auto runs =
      measure::measure_benchmark(0, measure::SystemModel::amd(), 10, 12345);
  serve::PredictRequest request;
  request.seed = 99;
  request.n_samples = 2000;
  request.n_metrics = static_cast<std::uint32_t>(runs.counters.cols());
  request.runtimes = runs.runtimes;
  for (std::size_t r = 0; r < runs.run_count(); ++r) {
    for (std::size_t m = 0; m < runs.counters.cols(); ++m) {
      request.counters.push_back(runs.counters.at(r, m));
    }
  }
  return request;
}

// Serve compute at the shape the end-to-end benchmark's serve_mix workload
// serves: the paper's PearsonRnd+kNN amd->intel transfer model trained on
// the seed-7 corpora (60 benchmarks x 1000 runs), one 10-probe request,
// 2000 samples. Most of it is the Pearson reconstruct.
struct ServeShape {
  serve::LoadedModel model;
  serve::PredictRequest request;
};

const ServeShape& serve_shape() {
  static const ServeShape shape = [] {
    const auto amd =
        measure::build_corpus(measure::SystemModel::amd(), 1000, 7);
    const auto intel =
        measure::build_corpus(measure::SystemModel::intel(), 1000, 7);
    core::CrossSystemConfig config;
    config.repr = core::ReprKind::kPearson;
    config.model = core::ModelKind::kKnn;
    ServeShape s;
    s.model.predictor = core::CrossSystemPredictor(config);
    s.model.predictor.train_all(amd, intel);
    s.request = serve_request();
    return s;
  }();
  return shape;
}

void BM_ServePredict(benchmark::State& state) {
  const ServeShape& shape = serve_shape();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        serve::default_compute(shape.request, shape.model));
  }
}
BENCHMARK(BM_ServePredict)->Unit(benchmark::kMicrosecond);

// The four codec steps of one predict round trip at the serve shape: encode
// the request frame, decode its body, encode the 2000-sample response
// frame, decode its body (what perfbench reports as serve.codec_us).
void BM_ServeCodec(benchmark::State& state) {
  serve::PredictRequest request = serve_request();
  request.model = "served";
  serve::PredictResponse response;
  response.version = 1;
  Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    response.samples.push_back(rng.uniform(0.9, 1.3));
  }
  for (auto _ : state) {
    const std::string req_frame =
        serve::encode_frame(serve::MsgType::kPredict, 1, request.body());
    benchmark::DoNotOptimize(serve::PredictRequest::parse(
        std::string_view(req_frame).substr(13)));
    const std::string resp_frame =
        serve::encode_frame(serve::MsgType::kPredictOk, 1, response.body());
    benchmark::DoNotOptimize(serve::PredictResponse::parse(
        std::string_view(resp_frame).substr(13)));
  }
}
BENCHMARK(BM_ServeCodec)->Unit(benchmark::kMicrosecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): peel off the harness-owned flags
// (--fast/--runs/--obs/--obs-out) before google-benchmark sees argv — it
// aborts on flags it does not recognize — then run under a bench::Run so
// this binary emits BENCH_micro_components.json like every other harness.
int main(int argc, char** argv) {
  varpred::bench::HarnessArgs args;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (!args.consume(argv[i])) passthrough.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }
  const int rc = varpred::bench::run_repeated(
      "micro_components", args, [](varpred::bench::Run& run) {
        run.stage("benchmarks");
        // google-benchmark 1.7 segfaults when RunSpecifiedBenchmarks() is
        // called a second time through its internal default reporter; a
        // fresh reporter per repetition keeps --repeat=N working.
        benchmark::ConsoleReporter reporter;
        benchmark::RunSpecifiedBenchmarks(&reporter);
      });
  benchmark::Shutdown();
  return rc;
}
