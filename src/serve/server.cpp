#include "serve/server.hpp"

#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/expose.hpp"
#include "obs/obs.hpp"

namespace varpred::serve {

namespace {

constexpr std::uint32_t kMaxSamplesPerRequest = 1u << 20;

/// Records one RED observation (rate / errors / duration) under `base`.
void record_red(const std::string& base, bool error, std::uint64_t dur_ns) {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::global();
  reg.counter(base + ".requests").add(1);
  if (error) reg.counter(base + ".errors").add(1);
  reg.hdr(base + ".duration_ns").record(dur_ns);
}

void send_error(int fd, std::uint64_t trace_id, ErrorCode code,
                std::string message) {
  ErrorResponse err;
  err.code = code;
  err.message = std::move(message);
  write_frame(fd, MsgType::kError, trace_id, err.body());
}

void validate_predict_request(const PredictRequest& request) {
  VARPRED_CHECK_ARG(!request.runtimes.empty(),
                    "predict request has no probe runtimes");
  VARPRED_CHECK_ARG(request.n_samples > 0, "n_samples must be positive");
  VARPRED_CHECK_ARG(request.n_samples <= kMaxSamplesPerRequest,
                    "n_samples exceeds the per-request cap");
  VARPRED_CHECK_ARG(
      request.counters.size() ==
          request.runtimes.size() * request.n_metrics,
      "counters must be runtimes x n_metrics values, row-major");
  for (const double t : request.runtimes) {
    VARPRED_CHECK_ARG(t > 0.0, "probe runtimes must be positive");
  }
}

void set_queue_depth(std::size_t waiting) {
  if (!obs::enabled()) return;
  obs::Registry::global().gauge("serve.queue_depth").set(
      static_cast<double>(waiting));
}

}  // namespace

std::vector<double> default_compute(const PredictRequest& request,
                                    const LoadedModel& model) {
  validate_predict_request(request);
  measure::BenchmarkRuns runs;
  runs.benchmark = request.benchmark;
  runs.runtimes = request.runtimes;
  runs.counters = ml::Matrix(request.runtimes.size(), request.n_metrics);
  for (std::size_t r = 0; r < request.runtimes.size(); ++r) {
    for (std::size_t m = 0; m < request.n_metrics; ++m) {
      runs.counters.at(r, m) = request.counters[r * request.n_metrics + m];
    }
  }
  Rng rng(request.seed);
  return model.predictor.predict_distribution(runs, request.n_samples, rng);
}

Server::Server(ModelRegistry& registry, ServerConfig config)
    : registry_(registry),
      config_(std::move(config)),
      slots_(ThreadPool::global().worker_count()) {
  VARPRED_CHECK_ARG(config_.queue_max > 0, "queue_max must be positive");
  if (!config_.compute) config_.compute = default_compute;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  VARPRED_CHECK_ARG(listen_fd_ >= 0, "cannot create listen socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    VARPRED_CHECK_ARG(false, "cannot bind 127.0.0.1:" +
                                 std::to_string(config_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  accept_thread_ = std::thread([this, fd = listen_fd_] { accept_loop(fd); });
}

Server::~Server() { stop(); }

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_) return;
    stopping_ = true;
    // Unblock every connection thread's read_frame; the threads close and
    // deregister their own fds on exit.
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  // Wake the accept thread and join it before the fd is closed: closing
  // first would let the number be reused while accept() may still use it.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::unique_lock<std::mutex> lock(conn_mu_);
    conn_cv_.wait(lock, [this] { return conn_active_ == 0; });
  }
}

void Server::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down by stop()
    }
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      conn_fds_.insert(fd);
      ++conn_active_;
      if (obs::enabled()) {
        obs::Registry::global()
            .gauge("serve.connections")
            .set(static_cast<double>(conn_fds_.size()));
      }
    }
    std::thread([this, fd] { handle_connection(fd); }).detach();
  }
}

void Server::handle_connection(int fd) {
  try {
    for (;;) {
      const auto frame = read_frame(fd);
      if (!frame.has_value()) break;  // client closed cleanly
      if (!handle_frame(fd, *frame)) break;
    }
  } catch (const std::exception&) {
    // Malformed framing: the byte stream can no longer be trusted, so the
    // connection closes (per-body decode errors are answered in-band).
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  ::close(fd);
  conn_fds_.erase(fd);
  --conn_active_;
  if (obs::enabled()) {
    obs::Registry::global()
        .gauge("serve.connections")
        .set(static_cast<double>(conn_fds_.size()));
  }
  conn_cv_.notify_all();
}

bool Server::handle_frame(int fd, const Frame& frame) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  obs::TraceIdScope trace(frame.trace_id);
  obs::Span span("serve.request");
  const std::uint64_t begin = obs::now_ns();
  try {
    switch (frame.type) {
      case MsgType::kPing: {
        const bool ok = write_frame(fd, MsgType::kPingOk, frame.trace_id, "");
        record_red("serve.ping", false, obs::now_ns() - begin);
        return ok;
      }
      case MsgType::kPredict:
        handle_predict(fd, frame);
        return true;
      case MsgType::kSwap: {
        const SwapRequest req = SwapRequest::parse(frame.body);
        SwapResponse resp;
        bool error = false;
        try {
          resp.version = registry_.publish_file(req.model, req.path);
        } catch (const std::invalid_argument& e) {
          error = true;
          send_error(fd, frame.trace_id, ErrorCode::kBadRequest, e.what());
        }
        if (!error) {
          write_frame(fd, MsgType::kSwapOk, frame.trace_id, resp.body());
        }
        record_red("serve.swap", error, obs::now_ns() - begin);
        return true;
      }
      case MsgType::kList: {
        ListResponse resp;
        for (const auto& model : registry_.list()) {
          resp.entries.push_back({model->name, model->version,
                                  model->source_system, model->source});
        }
        write_frame(fd, MsgType::kListOk, frame.trace_id, resp.body());
        record_red("serve.list", false, obs::now_ns() - begin);
        return true;
      }
      case MsgType::kStats: {
        StatsResponse resp;
        resp.prometheus =
            obs::prometheus_text(obs::Registry::global().snapshot());
        write_frame(fd, MsgType::kStatsOk, frame.trace_id, resp.body());
        record_red("serve.stats", false, obs::now_ns() - begin);
        return true;
      }
      default:
        send_error(fd, frame.trace_id, ErrorCode::kMalformed,
                   std::string("unexpected message type: ") +
                       to_string(frame.type));
        return false;
    }
  } catch (const std::invalid_argument& e) {
    // Body decode failure: the frame boundary is intact (length-prefixed),
    // so answer in-band and keep the connection.
    send_error(fd, frame.trace_id, ErrorCode::kMalformed, e.what());
    record_red("serve.malformed", true, obs::now_ns() - begin);
    return true;
  }
}

void Server::handle_predict(int fd, const Frame& frame) {
  const std::uint64_t begin = obs::now_ns();
  const PredictRequest request = PredictRequest::parse(frame.body);

  // Resolve the model before admission: a swap published while this
  // request waits or computes does not change the version serving it.
  const auto model = registry_.get(request.model, request.version);
  if (model == nullptr) {
    send_error(fd, frame.trace_id, ErrorCode::kUnknownModel,
               "unknown model/version: " + request.model);
    record_red("serve.predict", true, obs::now_ns() - begin);
    return;
  }
  const std::string versioned =
      "serve.predict." + model->name + ".v" + std::to_string(model->version);

  const std::uint64_t admit_ns = obs::now_ns();
  if (!acquire_slot()) {
    send_error(fd, frame.trace_id, ErrorCode::kOverloaded,
               "admission queue full");
    const std::uint64_t dur = obs::now_ns() - begin;
    record_red("serve.predict", true, dur);
    record_red(versioned, true, dur);
    return;
  }
  const std::uint64_t compute_begin = obs::now_ns();
  PredictResponse response;
  response.version = model->version;
  response.queue_ns = compute_begin - admit_ns;
  bool ok = false;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  try {
    obs::Span span("serve.compute");
    response.samples = config_.compute(request, *model);
    ok = true;
  } catch (const std::invalid_argument& e) {
    code = ErrorCode::kBadRequest;
    message = e.what();
  } catch (const std::exception& e) {
    message = e.what();
  }
  response.compute_ns = obs::now_ns() - compute_begin;
  release_slot();
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.hdr("serve.queue_wait_ns").record(response.queue_ns);
    reg.hdr("serve.compute_ns").record(response.compute_ns);
  }

  if (ok) {
    write_frame(fd, MsgType::kPredictOk, frame.trace_id, response.body());
  } else {
    send_error(fd, frame.trace_id, code, std::move(message));
  }
  const std::uint64_t dur = obs::now_ns() - begin;
  record_red("serve.predict", !ok, dur);
  record_red(versioned, !ok, dur);
}

bool Server::acquire_slot() {
  {
    std::unique_lock<std::mutex> lock(slot_mu_);
    if (computing_ >= slots_) {
      if (waiting_ >= config_.queue_max) {
        lock.unlock();
        VARPRED_OBS_COUNT("serve.rejected", 1);
        return false;
      }
      ++waiting_;
      set_queue_depth(waiting_);
      slot_cv_.wait(lock, [this] { return computing_ < slots_; });
      --waiting_;
      set_queue_depth(waiting_);
    }
    ++computing_;
  }
  VARPRED_OBS_COUNT("serve.admitted", 1);
  return true;
}

void Server::release_slot() {
  {
    std::lock_guard<std::mutex> lock(slot_mu_);
    --computing_;
  }
  slot_cv_.notify_one();
}

}  // namespace varpred::serve
