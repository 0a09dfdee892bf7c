#include "serve/protocol.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/uio.h>

#include "common/check.hpp"

namespace varpred::serve {

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kPing:
      return "ping";
    case MsgType::kPredict:
      return "predict";
    case MsgType::kSwap:
      return "swap";
    case MsgType::kList:
      return "list";
    case MsgType::kStats:
      return "stats";
    case MsgType::kPingOk:
      return "ping_ok";
    case MsgType::kPredictOk:
      return "predict_ok";
    case MsgType::kSwapOk:
      return "swap_ok";
    case MsgType::kListOk:
      return "list_ok";
    case MsgType::kStatsOk:
      return "stats_ok";
    case MsgType::kError:
      return "error";
  }
  return "?";
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformed:
      return "malformed";
    case ErrorCode::kUnknownModel:
      return "unknown_model";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kBadRequest:
      return "bad_request";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "?";
}

namespace {

bool known_type(std::uint8_t raw) {
  switch (static_cast<MsgType>(raw)) {
    case MsgType::kPing:
    case MsgType::kPredict:
    case MsgType::kSwap:
    case MsgType::kList:
    case MsgType::kStats:
    case MsgType::kPingOk:
    case MsgType::kPredictOk:
    case MsgType::kSwapOk:
    case MsgType::kListOk:
    case MsgType::kStatsOk:
    case MsgType::kError:
      return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// WireWriter / WireReader
//
// The wire is little-endian and so is every target this repo builds for, so
// a value's bytes are its memory bytes: each primitive is one memcpy, and a
// vector of doubles goes out and comes back in one block copy.
static_assert(std::endian::native == std::endian::little,
              "the wire codec copies host bytes as little-endian");

namespace {

template <class T>
void append_bytes(std::string& buf, const T& value) {
  buf.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

}  // namespace

void WireWriter::u8(std::uint8_t value) {
  buf_.push_back(static_cast<char>(value));
}

void WireWriter::u32(std::uint32_t value) { append_bytes(buf_, value); }

void WireWriter::u64(std::uint64_t value) { append_bytes(buf_, value); }

void WireWriter::f64(double value) { append_bytes(buf_, value); }

void WireWriter::str(std::string_view value) {
  VARPRED_CHECK_ARG(value.size() <= kMaxFramePayload, "string too large");
  u32(static_cast<std::uint32_t>(value.size()));
  buf_.append(value);
}

void WireWriter::f64s(const std::vector<double>& values) {
  VARPRED_CHECK_ARG(values.size() <= kMaxFramePayload / 8,
                    "vector too large");
  u32(static_cast<std::uint32_t>(values.size()));
  buf_.append(reinterpret_cast<const char*>(values.data()),
              values.size() * sizeof(double));
}

void WireReader::need(std::size_t n) const {
  VARPRED_CHECK_ARG(n <= data_.size() - pos_,
                    "malformed frame body: read past end");
}

std::uint8_t WireReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t WireReader::u32() {
  need(4);
  std::uint32_t value = 0;
  std::memcpy(&value, data_.data() + pos_, 4);
  pos_ += 4;
  return value;
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t value = 0;
  std::memcpy(&value, data_.data() + pos_, 8);
  pos_ += 8;
  return value;
}

double WireReader::f64() { return std::bit_cast<double>(u64()); }

std::string WireReader::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string out(data_.substr(pos_, len));
  pos_ += len;
  return out;
}

std::vector<double> WireReader::f64s() {
  const std::uint32_t count = u32();
  // Each element is 8 bytes, so the count is bounded by what the body can
  // actually hold — a lying count fails here, before any allocation.
  const std::size_t bytes = static_cast<std::size_t>(count) * sizeof(double);
  need(bytes);
  std::vector<double> out(count);
  if (count > 0) std::memcpy(out.data(), data_.data() + pos_, bytes);
  pos_ += bytes;
  return out;
}

void WireReader::expect_done() const {
  VARPRED_CHECK_ARG(pos_ == data_.size(),
                    "malformed frame body: trailing bytes");
}

// ---------------------------------------------------------------------------
// Messages

std::string PredictRequest::body() const {
  WireWriter w;
  w.str(model);
  w.u64(version);
  w.u64(seed);
  w.u32(n_samples);
  w.u32(benchmark);
  w.u32(n_metrics);
  w.f64s(runtimes);
  w.f64s(counters);
  return w.take();
}

PredictRequest PredictRequest::parse(std::string_view body) {
  WireReader r(body);
  PredictRequest out;
  out.model = r.str();
  out.version = r.u64();
  out.seed = r.u64();
  out.n_samples = r.u32();
  out.benchmark = r.u32();
  out.n_metrics = r.u32();
  out.runtimes = r.f64s();
  out.counters = r.f64s();
  r.expect_done();
  return out;
}

std::string PredictResponse::body() const {
  WireWriter w;
  w.u64(version);
  w.u64(queue_ns);
  w.u64(compute_ns);
  w.f64s(samples);
  return w.take();
}

PredictResponse PredictResponse::parse(std::string_view body) {
  WireReader r(body);
  PredictResponse out;
  out.version = r.u64();
  out.queue_ns = r.u64();
  out.compute_ns = r.u64();
  out.samples = r.f64s();
  r.expect_done();
  return out;
}

std::string SwapRequest::body() const {
  WireWriter w;
  w.str(model);
  w.str(path);
  return w.take();
}

SwapRequest SwapRequest::parse(std::string_view body) {
  WireReader r(body);
  SwapRequest out;
  out.model = r.str();
  out.path = r.str();
  r.expect_done();
  return out;
}

std::string SwapResponse::body() const {
  WireWriter w;
  w.u64(version);
  return w.take();
}

SwapResponse SwapResponse::parse(std::string_view body) {
  WireReader r(body);
  SwapResponse out;
  out.version = r.u64();
  r.expect_done();
  return out;
}

std::string ListResponse::body() const {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const Entry& e : entries) {
    w.str(e.model);
    w.u64(e.version);
    w.str(e.source_system);
    w.str(e.source);
  }
  return w.take();
}

ListResponse ListResponse::parse(std::string_view body) {
  WireReader r(body);
  ListResponse out;
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    Entry e;
    e.model = r.str();
    e.version = r.u64();
    e.source_system = r.str();
    e.source = r.str();
    out.entries.push_back(std::move(e));
  }
  r.expect_done();
  return out;
}

std::string StatsResponse::body() const {
  WireWriter w;
  w.str(prometheus);
  return w.take();
}

StatsResponse StatsResponse::parse(std::string_view body) {
  WireReader r(body);
  StatsResponse out;
  out.prometheus = r.str();
  r.expect_done();
  return out;
}

std::string ErrorResponse::body() const {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(code));
  w.str(message);
  return w.take();
}

ErrorResponse ErrorResponse::parse(std::string_view body) {
  WireReader r(body);
  ErrorResponse out;
  const std::uint32_t code = r.u32();
  VARPRED_CHECK_ARG(
      code >= static_cast<std::uint32_t>(ErrorCode::kMalformed) &&
          code <= static_cast<std::uint32_t>(ErrorCode::kInternal),
      "malformed error body: unknown error code");
  out.code = static_cast<ErrorCode>(code);
  out.message = r.str();
  r.expect_done();
  return out;
}

// ---------------------------------------------------------------------------
// Framing

namespace {

/// Length prefix (u32) + message type (u8) + trace id (u64).
constexpr std::size_t kHeaderBytes = 13;

/// Body bytes read before the buffer first has to grow. Past it, the body
/// grows by doubling as bytes arrive, so a lying length prefix pins at most
/// twice what the peer actually sent.
constexpr std::size_t kBodyChunk = 64u << 10;

using Header = std::array<char, kHeaderBytes>;

Header encode_header(MsgType type, std::uint64_t trace_id,
                     std::size_t body_size) {
  VARPRED_CHECK_ARG(body_size + 9 <= kMaxFramePayload,
                    "frame body exceeds kMaxFramePayload");
  const auto length = static_cast<std::uint32_t>(body_size + 9);
  Header header{};
  std::memcpy(header.data(), &length, 4);
  header[4] = static_cast<char>(type);
  std::memcpy(header.data() + 5, &trace_id, 8);
  return header;
}

/// Drops the first `n` bytes of the iovec list, skipping emptied entries.
void consume(iovec*& iov, int& count, std::size_t n) {
  while (count > 0 && n >= iov->iov_len) {
    n -= iov->iov_len;
    ++iov;
    --count;
  }
  if (count > 0) {
    iov->iov_base = static_cast<char*>(iov->iov_base) + n;
    iov->iov_len -= n;
  }
}

bool write_all(int fd, iovec* iov, int count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(count);
    // MSG_NOSIGNAL: a peer that hung up fails the call (EPIPE) instead of
    // raising SIGPIPE in the whole process.
    const ssize_t wrote = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (wrote == 0) return false;
    consume(iov, count, static_cast<std::size_t>(wrote));
  }
  return true;
}

/// 1 = filled every iovec, 0 = clean EOF before the first byte, -1 = error
/// or EOF mid-read.
int read_all(int fd, iovec* iov, int count) {
  bool any = false;
  while (count > 0) {
    const ssize_t got = ::readv(fd, iov, count);
    if (got < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (got == 0) return any ? -1 : 0;
    any = true;
    consume(iov, count, static_cast<std::size_t>(got));
  }
  return 1;
}

}  // namespace

std::string encode_frame(MsgType type, std::uint64_t trace_id,
                         std::string_view body) {
  const Header header = encode_header(type, trace_id, body.size());
  std::string out;
  out.reserve(kHeaderBytes + body.size());
  out.append(header.data(), header.size());
  out.append(body);
  return out;
}

bool write_frame(int fd, MsgType type, std::uint64_t trace_id,
                 std::string_view body) {
  Header header = encode_header(type, trace_id, body.size());
  iovec iov[2] = {{header.data(), header.size()},
                  {const_cast<char*>(body.data()), body.size()}};
  return write_all(fd, iov, 2);
}

std::optional<Frame> read_frame(int fd) {
  std::uint32_t length = 0;
  iovec prefix{&length, sizeof(length)};
  const int rc = read_all(fd, &prefix, 1);
  if (rc == 0) return std::nullopt;  // clean EOF between frames
  VARPRED_CHECK_ARG(rc == 1, "connection closed mid-frame");
  VARPRED_CHECK_ARG(length >= 9, "malformed frame: payload shorter than "
                                 "header");
  VARPRED_CHECK_ARG(length <= kMaxFramePayload,
                    "malformed frame: payload exceeds the size cap");
  // Type and trace id land on the stack, the body straight in Frame::body.
  const std::size_t body_size = length - 9;
  Frame frame;
  char header[9] = {};
  std::size_t have = std::min(body_size, kBodyChunk);
  frame.body.resize(have);
  iovec first[2] = {{header, sizeof(header)}, {frame.body.data(), have}};
  VARPRED_CHECK_ARG(read_all(fd, first, 2) == 1,
                    "connection closed mid-frame");
  const auto raw_type = static_cast<std::uint8_t>(header[0]);
  VARPRED_CHECK_ARG(known_type(raw_type), "malformed frame: unknown message "
                                          "type");
  frame.type = static_cast<MsgType>(raw_type);
  std::memcpy(&frame.trace_id, header + 1, 8);
  while (have < body_size) {
    const std::size_t next = std::min(body_size, 2 * have);
    frame.body.resize(next);
    iovec rest{frame.body.data() + have, next - have};
    VARPRED_CHECK_ARG(read_all(fd, &rest, 1) == 1,
                      "connection closed mid-frame");
    have = next;
  }
  return frame;
}

}  // namespace varpred::serve
