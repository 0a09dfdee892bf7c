// varpredd's TCP front end.
//
// One accept thread plus one thread per connection. A connection handles
// one request at a time (read frame -> handle -> write response), so a
// client gets responses in request order, and each predict runs on the
// connection thread that decoded it; concurrency comes from many
// connections.
//
// Admission: at most ThreadPool::global().worker_count() predicts compute
// at once, and at most `queue_max` more wait for a free slot. A predict
// beyond that is answered kOverloaded instead of queueing unboundedly, so
// latency under saturation stays bounded and the load generator can
// measure the error rate. The model is resolved before admission, so a hot
// swap never changes the version an admitted request computes against.
//
// RED metrics per endpoint (rate / errors / duration): counters
// serve.<endpoint>.requests and serve.<endpoint>.errors plus HDR histogram
// serve.<endpoint>.duration_ns; predict additionally records the same
// triple under serve.predict.<model>.v<version>.* so a hot swap shows up
// as a new version series mid-scrape. Gauge serve.connections tracks open
// sockets. Admission records serve.admitted / serve.rejected counters, the
// serve.queue_depth gauge (requests waiting for a slot), and the
// serve.queue_wait_ns and serve.compute_ns HDR histograms.
//
// Trace propagation: the client's trace id is set (TraceIdScope) on the
// connection thread for the whole request, so the "serve.request" span and
// the "serve.compute" span nested inside it carry the id into the
// Chrome-trace sink.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace varpred::serve {

/// Default compute: validates the request's shape (std::invalid_argument,
/// answered kBadRequest, on a violation), rebuilds BenchmarkRuns from it
/// and runs predict_distribution with a per-request Rng(seed) — responses
/// are deterministic for a given (model version, request) pair.
std::vector<double> default_compute(const PredictRequest& request,
                                    const LoadedModel& model);

struct ServerConfig {
  std::uint16_t port = 0;  ///< 0 binds an ephemeral port (see Server::port)
  /// Predicts that may wait for a compute slot before kOverloaded.
  std::size_t queue_max = 256;
  /// Test hook: replaces default_compute. Exceptions map to kBadRequest
  /// (std::invalid_argument) or kInternal.
  std::function<std::vector<double>(const PredictRequest&,
                                    const LoadedModel&)>
      compute;
};

class Server {
 public:
  /// Binds 127.0.0.1:<port>, starts listening and accepting. Throws
  /// std::invalid_argument when the port cannot be bound. The registry must
  /// outlive the server.
  Server(ModelRegistry& registry, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Actual bound port (useful with config.port = 0).
  std::uint16_t port() const { return port_; }

  /// Stops accepting, shuts down open connections, waits for every
  /// connection thread (admitted predicts finish computing first), and
  /// joins the accept thread. Idempotent; the destructor calls it.
  void stop();

  /// Requests served since start (all endpoints, including errors).
  std::uint64_t requests_handled() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  /// Accepts on `listen_fd` (the thread's own copy; stop() owns the
  /// member) until stop() shuts the listener down.
  void accept_loop(int listen_fd);
  void handle_connection(int fd);
  /// Dispatches one decoded frame; returns false when the connection should
  /// close (protocol violation).
  bool handle_frame(int fd, const Frame& frame);
  void handle_predict(int fd, const Frame& frame);
  /// Takes a compute slot, waiting while every slot is busy; false (no
  /// slot taken) when `queue_max` predicts already wait.
  bool acquire_slot();
  void release_slot();

  ModelRegistry& registry_;
  ServerConfig config_;
  const std::size_t slots_;  ///< concurrent computes allowed

  std::mutex slot_mu_;
  std::condition_variable slot_cv_;
  std::size_t computing_ = 0;  // predicts holding a slot
  std::size_t waiting_ = 0;    // predicts waiting for one
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<std::uint64_t> requests_{0};

  std::mutex conn_mu_;
  std::condition_variable conn_cv_;
  std::set<int> conn_fds_;      // open connection sockets, for shutdown
  std::size_t conn_active_ = 0;  // detached connection threads still running
  bool stopping_ = false;
};

}  // namespace varpred::serve
