#include "serve/client.hpp"

#include <string>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/check.hpp"

namespace varpred::serve {

Client::Client(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  VARPRED_CHECK_ARG(fd_ >= 0, "cannot create client socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    VARPRED_CHECK_ARG(false,
                      "cannot connect to 127.0.0.1:" + std::to_string(port));
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Frame Client::round_trip(MsgType type, std::uint64_t trace_id,
                         std::string_view body, MsgType expect) {
  VARPRED_CHECK_ARG(fd_ >= 0, "client not connected");
  VARPRED_CHECK_ARG(write_frame(fd_, type, trace_id, body),
                    "connection closed while sending");
  auto frame = read_frame(fd_);
  VARPRED_CHECK_ARG(frame.has_value(),
                    "connection closed while awaiting a response");
  VARPRED_CHECK_ARG(
      frame->type == expect || frame->type == MsgType::kError,
      std::string("unexpected response type: ") + to_string(frame->type));
  return std::move(*frame);
}

bool Client::ping() {
  if (fd_ < 0) return false;
  if (!write_frame(fd_, MsgType::kPing, 0, "")) return false;
  try {
    const auto frame = read_frame(fd_);
    return frame.has_value() && frame->type == MsgType::kPingOk;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

PredictOutcome Client::predict(const PredictRequest& request,
                               std::uint64_t trace_id) {
  const Frame frame = round_trip(MsgType::kPredict, trace_id, request.body(),
                                 MsgType::kPredictOk);
  PredictOutcome outcome;
  if (frame.type == MsgType::kError) {
    const ErrorResponse err = ErrorResponse::parse(frame.body);
    outcome.code = err.code;
    outcome.message = err.message;
    return outcome;
  }
  outcome.ok = true;
  outcome.response = PredictResponse::parse(frame.body);
  return outcome;
}

std::uint64_t Client::swap(const std::string& model,
                           const std::string& path) {
  SwapRequest req;
  req.model = model;
  req.path = path;
  const Frame frame =
      round_trip(MsgType::kSwap, 0, req.body(), MsgType::kSwapOk);
  if (frame.type == MsgType::kError) {
    const ErrorResponse err = ErrorResponse::parse(frame.body);
    VARPRED_CHECK_ARG(false, "swap rejected: " + err.message);
  }
  return SwapResponse::parse(frame.body).version;
}

ListResponse Client::list() {
  const Frame frame = round_trip(MsgType::kList, 0, "", MsgType::kListOk);
  VARPRED_CHECK_ARG(frame.type == MsgType::kListOk,
                    "list rejected by server");
  return ListResponse::parse(frame.body);
}

std::string Client::stats() {
  const Frame frame = round_trip(MsgType::kStats, 0, "", MsgType::kStatsOk);
  VARPRED_CHECK_ARG(frame.type == MsgType::kStatsOk,
                    "stats rejected by server");
  return StatsResponse::parse(frame.body).prometheus;
}

}  // namespace varpred::serve
