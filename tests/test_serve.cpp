// Serving subsystem tests: wire codec and framing (golden frame hashes and a
// seeded mutation test over every decoder), the versioned model registry
// (including checksum rejection of corrupt artifacts), the TCP server/client
// pair end-to-end, admission control and compute errors through the
// server's compute hook, stop() with live requests, memory pinned by
// stalled peers, hot-swap liveness under concurrent load, and request
// trace-id propagation.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/crosssystem.hpp"
#include "io/serialize.hpp"
#include "measure/corpus.hpp"
#include "obs/expose.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace varpred {
namespace {

using serve::ErrorCode;
using serve::Frame;
using serve::MsgType;

// ---------------------------------------------------------------------------
// Shared fixtures. Training a cross-system predictor dominates this suite's
// runtime, so do it once and share the result (the predictor is immutable
// after training).

const core::CrossSystemPredictor& trained_predictor() {
  static const core::CrossSystemPredictor predictor = [] {
    const auto amd = measure::build_corpus(measure::SystemModel::amd(), 40, 7);
    const auto intel =
        measure::build_corpus(measure::SystemModel::intel(), 40, 7);
    core::CrossSystemPredictor p;
    p.train_all(amd, intel);
    return p;
  }();
  return predictor;
}

const std::string& trained_model_bytes() {
  static const std::string bytes = [] {
    std::ostringstream out;
    trained_predictor().save(out);
    return out.str();
  }();
  return bytes;
}

/// A registry-publishable instance (the predictor is move-only, so each
/// publish gets its own deserialized copy of the shared trained model).
core::CrossSystemPredictor fresh_predictor() {
  std::istringstream in(trained_model_bytes());
  return core::CrossSystemPredictor::load(in);
}

/// Probe runs measured on the predictor's source system, as a wire request.
serve::PredictRequest probe_request(std::uint64_t seed = 99,
                                    std::uint32_t n_samples = 64) {
  const auto runs =
      measure::measure_benchmark(0, measure::SystemModel::amd(), 6, 4242);
  serve::PredictRequest request;
  request.model = "demo";
  request.seed = seed;
  request.n_samples = n_samples;
  request.benchmark = static_cast<std::uint32_t>(runs.benchmark);
  request.n_metrics = static_cast<std::uint32_t>(runs.counters.cols());
  request.runtimes = runs.runtimes;
  request.counters.reserve(runs.run_count() * runs.counters.cols());
  for (std::size_t r = 0; r < runs.run_count(); ++r) {
    for (std::size_t m = 0; m < runs.counters.cols(); ++m) {
      request.counters.push_back(runs.counters.at(r, m));
    }
  }
  return request;
}

/// What the server must answer for `probe_request(seed, n_samples)`.
std::vector<double> expected_samples(std::uint64_t seed,
                                     std::uint32_t n_samples) {
  const auto runs =
      measure::measure_benchmark(0, measure::SystemModel::amd(), 6, 4242);
  Rng rng(seed);
  return trained_predictor().predict_distribution(runs, n_samples, rng);
}

std::string save_model_file(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  trained_predictor().save(out);
  return path;
}

// ---------------------------------------------------------------------------
// Body codec.

TEST(ServeProtocol, WirePrimitivesRoundTrip) {
  serve::WireWriter w;
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-2.5);
  w.str("hello");
  w.f64s({1.0, 0.5, -0.25});

  serve::WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), -2.5);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.f64s(), (std::vector<double>{1.0, 0.5, -0.25}));
  EXPECT_NO_THROW(r.expect_done());
}

TEST(ServeProtocol, ReaderOverrunThrows) {
  serve::WireReader r(std::string_view("ab"));
  EXPECT_THROW(r.u32(), std::invalid_argument);
}

TEST(ServeProtocol, ReaderLyingStringLengthThrows) {
  serve::WireWriter w;
  w.u32(100);  // claims 100 bytes follow
  w.u8('x');
  serve::WireReader r(w.bytes());
  EXPECT_THROW(r.str(), std::invalid_argument);
}

TEST(ServeProtocol, ReaderLyingVectorCountThrows) {
  serve::WireWriter w;
  w.u32(1u << 30);  // 2^30 doubles cannot fit in this body
  w.f64(1.0);
  serve::WireReader r(w.bytes());
  EXPECT_THROW(r.f64s(), std::invalid_argument);
}

TEST(ServeProtocol, TrailingBytesThrow) {
  serve::WireWriter w;
  w.u8(1);
  w.u8(2);
  serve::WireReader r(w.bytes());
  (void)r.u8();
  EXPECT_THROW(r.expect_done(), std::invalid_argument);
}

TEST(ServeProtocol, PredictRequestRoundTrip) {
  serve::PredictRequest request;
  request.model = "demo";
  request.version = 3;
  request.seed = 17;
  request.n_samples = 128;
  request.benchmark = 5;
  request.n_metrics = 2;
  request.runtimes = {1.0, 1.1, 0.9};
  request.counters = {1, 2, 3, 4, 5, 6};

  const auto back = serve::PredictRequest::parse(request.body());
  EXPECT_EQ(back.model, "demo");
  EXPECT_EQ(back.version, 3u);
  EXPECT_EQ(back.seed, 17u);
  EXPECT_EQ(back.n_samples, 128u);
  EXPECT_EQ(back.benchmark, 5u);
  EXPECT_EQ(back.n_metrics, 2u);
  EXPECT_EQ(back.runtimes, request.runtimes);
  EXPECT_EQ(back.counters, request.counters);
}

TEST(ServeProtocol, PredictRequestTrailingGarbageThrows) {
  serve::PredictRequest request;
  request.model = "demo";
  request.runtimes = {1.0};
  EXPECT_THROW(serve::PredictRequest::parse(request.body() + "x"),
               std::invalid_argument);
}

TEST(ServeProtocol, ResponsesRoundTrip) {
  serve::PredictResponse predict;
  predict.version = 2;
  predict.queue_ns = 1000;
  predict.compute_ns = 2000;
  predict.samples = {0.9, 1.0, 1.2};
  const auto p = serve::PredictResponse::parse(predict.body());
  EXPECT_EQ(p.version, 2u);
  EXPECT_EQ(p.queue_ns, 1000u);
  EXPECT_EQ(p.compute_ns, 2000u);
  EXPECT_EQ(p.samples, predict.samples);

  serve::SwapRequest swap{"demo", "/tmp/model.vp"};
  const auto s = serve::SwapRequest::parse(swap.body());
  EXPECT_EQ(s.model, "demo");
  EXPECT_EQ(s.path, "/tmp/model.vp");

  serve::SwapResponse swapped;
  swapped.version = 9;
  EXPECT_EQ(serve::SwapResponse::parse(swapped.body()).version, 9u);

  serve::ListResponse list;
  list.entries.push_back({"a", 1, "amd", "a.vp"});
  list.entries.push_back({"b", 4, "intel", "<inline>"});
  const auto l = serve::ListResponse::parse(list.body());
  ASSERT_EQ(l.entries.size(), 2u);
  EXPECT_EQ(l.entries[0].model, "a");
  EXPECT_EQ(l.entries[1].version, 4u);
  EXPECT_EQ(l.entries[1].source_system, "intel");
  EXPECT_EQ(l.entries[1].source, "<inline>");

  serve::StatsResponse stats{"varpred_serve_requests 3\n"};
  EXPECT_EQ(serve::StatsResponse::parse(stats.body()).prometheus,
            stats.prometheus);

  serve::ErrorResponse error{ErrorCode::kOverloaded, "queue full"};
  const auto e = serve::ErrorResponse::parse(error.body());
  EXPECT_EQ(e.code, ErrorCode::kOverloaded);
  EXPECT_EQ(e.message, "queue full");
}

TEST(ServeProtocol, EncodeFrameLayout) {
  const std::string wire =
      serve::encode_frame(MsgType::kPredict, 0x1122334455667788ull, "AB");
  ASSERT_EQ(wire.size(), 4u + 9u + 2u);
  // u32 LE payload length = 1 (type) + 8 (trace id) + 2 (body).
  EXPECT_EQ(static_cast<unsigned char>(wire[0]), 11u);
  EXPECT_EQ(static_cast<unsigned char>(wire[1]), 0u);
  EXPECT_EQ(static_cast<unsigned char>(wire[4]),
            static_cast<unsigned char>(MsgType::kPredict));
  EXPECT_EQ(static_cast<unsigned char>(wire[5]), 0x88u);  // trace id LE
  EXPECT_EQ(static_cast<unsigned char>(wire[12]), 0x11u);
  EXPECT_EQ(wire.substr(13), "AB");
}

TEST(ServeProtocol, ErrorResponseRejectsUnknownCodes) {
  for (const std::uint32_t raw : {0u, 6u, 255u, 0xFFFFFFFFu}) {
    serve::WireWriter w;
    w.u32(raw);
    w.str("x");
    EXPECT_THROW(serve::ErrorResponse::parse(w.bytes()),
                 std::invalid_argument)
        << "code " << raw;
  }
  for (std::uint32_t raw = 1; raw <= 5; ++raw) {
    serve::WireWriter w;
    w.u32(raw);
    w.str("x");
    const auto error = serve::ErrorResponse::parse(w.bytes());
    EXPECT_EQ(static_cast<std::uint32_t>(error.code), raw);
    EXPECT_STRNE(serve::to_string(error.code), "?");
  }
}

// ---------------------------------------------------------------------------
// Golden wire bytes: one fixed instance of every message, pinned by the
// FNV-1a hash of its whole frame. The instances carry the values a codec
// most easily mangles (-0.0, a NaN with payload bits, denormals, +-inf,
// empty and non-ASCII strings) and the serve shape (10 probe runs x 75
// metrics in, 2000 samples out). Every value is an exact binary fraction or
// a bit pattern, so the bytes do not depend on floating-point evaluation.

struct GoldenMessage {
  const char* name;
  MsgType type;
  std::uint64_t trace_id;
  std::string body;

  std::string frame() const {
    return serve::encode_frame(type, trace_id, body);
  }
};

double from_bits(std::uint64_t bits) { return std::bit_cast<double>(bits); }

const std::vector<GoldenMessage>& golden_messages() {
  static const std::vector<GoldenMessage> messages = [] {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan_payload = from_bits(0x7FF800000000BEEFull);
    const double snan_negative = from_bits(0xFFF0000000000001ull);
    const double denorm_min = from_bits(0x0000000000000001ull);
    const double denorm_max = from_bits(0x000FFFFFFFFFFFFFull);

    serve::PredictRequest request;
    request.model = "demo";
    request.version = 3;
    request.seed = ~std::uint64_t{0};
    request.n_samples = 128;
    request.benchmark = 5;
    request.n_metrics = 2;
    request.runtimes = {1.0, -0.0, inf};
    request.counters = {nan_payload, denorm_min, -inf,
                        denorm_max,  1.5e300,    -0.25};

    serve::PredictRequest served;
    served.model = "served";
    served.seed = 31;
    served.n_samples = 2000;
    served.benchmark = 17;
    served.n_metrics = 75;
    for (std::uint32_t r = 0; r < 10; ++r) {
      served.runtimes.push_back(1.0 + r / 64.0);
    }
    for (std::uint32_t k = 0; k < 10 * 75; ++k) {
      served.counters.push_back(((k * 7919u) % 100003u) / 256.0);
    }

    serve::PredictResponse response;
    response.version = 2;
    response.queue_ns = 1000;
    response.compute_ns = ~std::uint64_t{0};
    response.samples = {-0.0, nan_payload, snan_negative, denorm_min,
                        inf,  -inf,        0.9};

    serve::PredictResponse answer;
    answer.version = 1;
    answer.queue_ns = 12345;
    answer.compute_ns = 223000;
    for (std::uint32_t i = 0; i < 2000; ++i) {
      answer.samples.push_back(0.75 + i / 4096.0);
    }

    serve::SwapRequest swap{"", "/models/\xce\xbc-caf\xc3\xa9.vp"};
    serve::SwapResponse swapped;
    swapped.version = 9;
    serve::ListResponse list;
    list.entries.push_back({"a", 1, "amd", "a.vp"});
    list.entries.push_back(
        {"\xe6\xa8\xa1\xe5\x9e\x8b", ~std::uint64_t{0}, "", "<inline>"});
    serve::StatsResponse stats{"varpred_serve_requests 3\n"};
    serve::ErrorResponse error{ErrorCode::kOverloaded,
                               "queue full \xe2\x9c\x93"};
    serve::ErrorResponse bare{ErrorCode::kMalformed, ""};

    return std::vector<GoldenMessage>{
        {"ping", MsgType::kPing, 0, ""},
        {"ping_ok", MsgType::kPingOk, 0, ""},
        {"predict", MsgType::kPredict, 0x0123456789ABCDEFull, request.body()},
        {"predict_served", MsgType::kPredict, 1, served.body()},
        {"predict_ok", MsgType::kPredictOk, 0xFEDCBA9876543210ull,
         response.body()},
        {"predict_ok_served", MsgType::kPredictOk, 1, answer.body()},
        {"swap", MsgType::kSwap, 7, swap.body()},
        {"swap_ok", MsgType::kSwapOk, 7, swapped.body()},
        {"list", MsgType::kList, 8, ""},
        {"list_ok", MsgType::kListOk, 8, list.body()},
        {"stats", MsgType::kStats, 9, ""},
        {"stats_ok", MsgType::kStatsOk, 9, stats.body()},
        {"error", MsgType::kError, 10, error.body()},
        {"error_bare", MsgType::kError, ~std::uint64_t{0}, bare.body()},
    };
  }();
  return messages;
}

TEST(ServeProtocol, GoldenFrameBytes) {
  // Hashes taken on the per-byte codec, before the bulk memcpy codec.
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"ping", 0xff99e6550e5e3097ull},
      {"ping_ok", 0x4a6f378ac0e32717ull},
      {"predict", 0xce8d6d159d430e6cull},
      {"predict_served", 0x443b7532ea599877ull},
      {"predict_ok", 0x01933cf182b6cbbfull},
      {"predict_ok_served", 0xda85860121f00c2eull},
      {"swap", 0xbc4312e3784a17bdull},
      {"swap_ok", 0x28f649b578313b5bull},
      {"list", 0x26b00338cfdd1130ull},
      {"list_ok", 0x57aaea3187ca58a5ull},
      {"stats", 0x9b1f918d5988bd22ull},
      {"stats_ok", 0xf6310a18b5529264ull},
      {"error", 0xcd2535a66c2ab53bull},
      {"error_bare", 0xe799b04e9d39e7c8ull},
  };
  const auto& messages = golden_messages();
  ASSERT_EQ(messages.size(), expected.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    ASSERT_EQ(messages[i].name, expected[i].first);
    const std::string frame = messages[i].frame();
    char hex[19];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(io::fnv1a64(frame)));
    EXPECT_EQ(io::fnv1a64(frame), expected[i].second)
        << messages[i].name << " hashes to " << hex << " ("
        << frame.size() << " bytes)";
  }
  // The serve shape: a 6139-byte request frame, a 16041-byte response.
  EXPECT_EQ(messages[3].frame().size(), 6139u);
  EXPECT_EQ(messages[5].frame().size(), 16041u);
}

// ---------------------------------------------------------------------------
// Framing over a socketpair.

struct SocketPair {
  int fd[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
  ~SocketPair() {
    if (fd[0] >= 0) close(fd[0]);
    if (fd[1] >= 0) close(fd[1]);
  }
  void close_writer() {
    close(fd[0]);
    fd[0] = -1;
  }
};

TEST(ServeFraming, RoundTripAndCleanEof) {
  SocketPair s;
  ASSERT_TRUE(serve::write_frame(s.fd[0], MsgType::kPredict, 42, "body"));
  const auto frame = serve::read_frame(s.fd[1]);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kPredict);
  EXPECT_EQ(frame->trace_id, 42u);
  EXPECT_EQ(frame->body, "body");

  s.close_writer();
  EXPECT_FALSE(serve::read_frame(s.fd[1]).has_value());  // clean EOF
}

TEST(ServeFraming, OversizedPayloadThrows) {
  SocketPair s;
  const std::uint32_t huge = serve::kMaxFramePayload + 1;
  unsigned char prefix[4] = {
      static_cast<unsigned char>(huge & 0xFF),
      static_cast<unsigned char>((huge >> 8) & 0xFF),
      static_cast<unsigned char>((huge >> 16) & 0xFF),
      static_cast<unsigned char>((huge >> 24) & 0xFF)};
  ASSERT_EQ(write(s.fd[0], prefix, 4), 4);
  s.close_writer();
  EXPECT_THROW(serve::read_frame(s.fd[1]), std::invalid_argument);
}

TEST(ServeFraming, UnknownMessageTypeThrows) {
  SocketPair s;
  ASSERT_TRUE(
      serve::write_frame(s.fd[0], static_cast<MsgType>(42), 0, ""));
  s.close_writer();
  EXPECT_THROW(serve::read_frame(s.fd[1]), std::invalid_argument);
}

TEST(ServeFraming, TruncatedFrameThrows) {
  SocketPair s;
  // Declares a 20-byte payload but delivers only 5 before EOF.
  unsigned char bytes[9] = {20, 0, 0, 0, 1, 0, 0, 0, 0};
  ASSERT_EQ(write(s.fd[0], bytes, 9), 9);
  s.close_writer();
  EXPECT_THROW(serve::read_frame(s.fd[1]), std::invalid_argument);
}

TEST(ServeFraming, WriteFrameResumesInterruptedSends) {
  // A signal landing mid-send makes send() return early: EINTR before the
  // first byte, a short count after it. The handler is installed without
  // SA_RESTART and the send buffer is small, so a 1 MiB frame written while
  // the reader keeps signalling the writer is cut many times over.
  struct sigaction action{};
  struct sigaction previous{};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);
  SocketPair s;
  const int small = 4096;
  EXPECT_EQ(setsockopt(s.fd[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)),
            0);
  std::string body(1u << 20, '\0');
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<char>(i * 131 % 251);
  }
  std::atomic<bool> sent{false};
  std::thread writer([&] {
    sent = serve::write_frame(s.fd[0], MsgType::kPredictOk, 7, body);
  });
  const std::string want = serve::encode_frame(MsgType::kPredictOk, 7, body);
  std::string got;
  char buf[4096];
  while (got.size() < want.size()) {
    pthread_kill(writer.native_handle(), SIGUSR1);
    const ssize_t n = read(s.fd[1], buf, sizeof(buf));
    if (n <= 0) break;
    got.append(buf, static_cast<std::size_t>(n));
  }
  writer.join();
  sigaction(SIGUSR1, &previous, nullptr);
  EXPECT_TRUE(sent.load());
  EXPECT_TRUE(got == want) << "received " << got.size() << " of "
                           << want.size() << " bytes";
}

// ---------------------------------------------------------------------------
// Seeded mutation test over every serve decoder. Starting from the golden
// bodies and frames, it feeds each decoder truncations at every length,
// seeded byte flips, u32 lengths and counts inflated up to 2^32-1, and
// splices of two valid inputs. The contract: an input either decodes to a
// message that encodes back to exactly the same bytes, or is rejected with
// std::invalid_argument. Crashes, other exceptions, over-reads (under
// ASan) and lossy decodes all fail.

using Reencode = std::string (*)(std::string_view);

template <class Message>
std::string reencode(std::string_view body) {
  return Message::parse(body).body();
}

constexpr std::pair<const char*, Reencode> kDecoders[] = {
    {"PredictRequest", reencode<serve::PredictRequest>},
    {"PredictResponse", reencode<serve::PredictResponse>},
    {"SwapRequest", reencode<serve::SwapRequest>},
    {"SwapResponse", reencode<serve::SwapResponse>},
    {"ListResponse", reencode<serve::ListResponse>},
    {"StatsResponse", reencode<serve::StatsResponse>},
    {"ErrorResponse", reencode<serve::ErrorResponse>},
};

/// Empty when every decoder keeps the contract on `body`, else what broke.
std::string decode_violation(std::string_view body) {
  for (const auto& [name, decode] : kDecoders) {
    try {
      if (decode(body) != body) {
        return std::string(name) + " decoded to a different encoding";
      }
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      return std::string(name) + " threw a non-argument error: " + e.what();
    }
  }
  return "";
}

/// Feeds `wire` to read_frame over a socketpair until EOF or a rejection.
/// Each frame read must re-encode to exactly the bytes it consumed, and its
/// body must keep the decoder contract.
std::string frame_violation(std::string_view wire) {
  SocketPair s;
  std::size_t written = 0;
  while (written < wire.size()) {
    const ssize_t n =
        write(s.fd[0], wire.data() + written, wire.size() - written);
    if (n <= 0) return "socketpair write failed";
    written += static_cast<std::size_t>(n);
  }
  s.close_writer();
  std::size_t consumed = 0;
  try {
    for (;;) {
      const auto frame = serve::read_frame(s.fd[1]);
      if (!frame.has_value()) {
        return consumed == wire.size() ? "" : "clean EOF inside a frame";
      }
      const std::string again =
          serve::encode_frame(frame->type, frame->trace_id, frame->body);
      if (wire.compare(consumed, again.size(), again) != 0) {
        return "read_frame returned a frame that re-encodes differently";
      }
      consumed += again.size();
      const std::string bad = decode_violation(frame->body);
      if (!bad.empty()) return bad;
    }
  } catch (const std::invalid_argument&) {
    return "";
  } catch (const std::exception& e) {
    return std::string("read_frame threw a non-argument error: ") + e.what();
  }
}

/// Visits truncations at every length, seeded byte flips and inflated u32
/// fields of one valid input, one mutant at a time.
template <class Visit>
void for_each_mutant(const std::string& valid, Rng& rng, Visit&& visit) {
  for (std::size_t n = 0; n < valid.size(); ++n) {
    visit(std::string_view(valid).substr(0, n));
  }
  if (valid.empty()) return;
  for (int i = 0; i < 48; ++i) {
    std::string m = valid;
    const int flips = 1 + static_cast<int>(rng.next_u64() % 4);
    for (int f = 0; f < flips; ++f) {
      m[rng.next_u64() % m.size()] ^=
          static_cast<char>(1 + rng.next_u64() % 255);
    }
    visit(m);
  }
  if (valid.size() < 4) return;
  // Every u32 slot near the front (where all lengths and counts of the
  // golden messages sit, frame prefix included) plus seeded ones further in.
  std::vector<std::size_t> offsets;
  for (std::size_t o = 0; o + 4 <= valid.size() && o < 144; ++o) {
    offsets.push_back(o);
  }
  for (int i = 0; i < 16; ++i) {
    offsets.push_back(rng.next_u64() % (valid.size() - 3));
  }
  for (const std::size_t o : offsets) {
    std::uint32_t original = 0;
    std::memcpy(&original, valid.data() + o, 4);
    const auto rest = static_cast<std::uint32_t>(valid.size() - o - 4);
    for (const std::uint32_t value :
         {0xFFFFFFFFu, serve::kMaxFramePayload, rest + 1, rest / 8 + 1,
          original + 1}) {
      std::string m = valid;
      std::memcpy(m.data() + o, &value, 4);
      visit(m);
    }
  }
}

/// Visits every ordered pair of valid inputs concatenated and spliced at
/// seeded cut points.
template <class Visit>
void for_each_splice(const std::vector<std::string>& valid, Rng& rng,
                     Visit&& visit) {
  for (const std::string& a : valid) {
    for (const std::string& b : valid) {
      visit(a + b);
      for (int i = 0; i < 4; ++i) {
        const std::size_t cut_a = rng.next_u64() % (a.size() + 1);
        const std::size_t cut_b = rng.next_u64() % (b.size() + 1);
        visit(a.substr(0, cut_a) + b.substr(cut_b));
      }
    }
  }
}

TEST(ServeFraming, SeededMutantsDecodeExactlyOrThrow) {
  std::vector<std::string> bodies;
  std::vector<std::string> frames;
  for (const GoldenMessage& m : golden_messages()) {
    bodies.push_back(m.body);
    frames.push_back(m.frame());
  }
  Rng rng(0x5EEDF00Dull);
  std::size_t checked = 0;
  std::string first_violation;
  const auto check = [&](std::string_view input, auto violation) {
    ++checked;
    if (!first_violation.empty()) return;
    const std::string bad = violation(input);
    if (!bad.empty()) {
      first_violation = bad + " (input #" + std::to_string(checked) + ", " +
                        std::to_string(input.size()) + " bytes)";
    }
  };
  const auto body = [&](std::string_view m) { check(m, decode_violation); };
  const auto frame = [&](std::string_view m) { check(m, frame_violation); };
  for (const std::string& valid : bodies) {
    body(valid);
    for_each_mutant(valid, rng, body);
  }
  for_each_splice(bodies, rng, body);
  for (const std::string& valid : frames) {
    frame(valid);
    for_each_mutant(valid, rng, frame);
  }
  for_each_splice(frames, rng, frame);
  EXPECT_EQ(first_violation, "");
  EXPECT_GT(checked, 50000u);
}

// ---------------------------------------------------------------------------
// Model registry.

TEST(ServeRegistry, PublishGetAndVersionHistory) {
  serve::ModelRegistry registry;
  EXPECT_EQ(registry.get("demo"), nullptr);

  EXPECT_EQ(registry.publish("demo", fresh_predictor()), 1u);
  EXPECT_EQ(registry.publish("demo", fresh_predictor()), 2u);
  EXPECT_EQ(registry.publish("other", fresh_predictor()), 1u);
  EXPECT_EQ(registry.size(), 2u);

  const auto latest = registry.get("demo");
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->version, 2u);
  EXPECT_EQ(latest->source, "<inline>");
  EXPECT_EQ(latest->source_system, "amd");

  // Old versions stay resolvable after a swap (in-flight requests hold
  // them), unknown versions do not.
  const auto v1 = registry.get("demo", 1);
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(registry.get("demo", 3), nullptr);
  EXPECT_EQ(registry.get("nope"), nullptr);

  const auto all = registry.list();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->name, "demo");
  EXPECT_EQ(all[0]->version, 2u);
  EXPECT_EQ(all[1]->name, "other");
}

TEST(ServeRegistry, PublishFileRejectsCorruption) {
  const std::string path = save_model_file("serve_registry_model.vp");

  serve::ModelRegistry registry;
  EXPECT_EQ(registry.publish_file("demo", path), 1u);
  EXPECT_EQ(registry.get("demo")->source, path);

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }

  // A flipped byte in the body must fail the checksum.
  const std::string flipped_path = "serve_registry_flipped.vp";
  {
    std::string flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x01;
    std::ofstream out(flipped_path, std::ios::binary);
    out << flipped;
  }
  EXPECT_THROW(registry.publish_file("demo", flipped_path),
               std::invalid_argument);

  // Truncation loses the checksum trailer.
  const std::string truncated_path = "serve_registry_truncated.vp";
  {
    std::ofstream out(truncated_path, std::ios::binary);
    out << bytes.substr(0, bytes.size() / 2);
  }
  EXPECT_THROW(registry.publish_file("demo", truncated_path),
               std::invalid_argument);

  EXPECT_THROW(registry.publish_file("demo", "no_such_file.vp"),
               std::invalid_argument);

  // Failed publishes left the registry unchanged.
  EXPECT_EQ(registry.get("demo")->version, 1u);

  std::remove(path.c_str());
  std::remove(flipped_path.c_str());
  std::remove(truncated_path.c_str());
}

// ---------------------------------------------------------------------------
// Server + client end to end over loopback TCP.

TEST(ServeEndToEnd, PredictMatchesDirectComputation) {
  serve::ModelRegistry registry;
  registry.publish("demo", fresh_predictor());
  serve::Server server(registry, serve::ServerConfig{});
  serve::Client client(server.port());
  EXPECT_TRUE(client.ping());

  const auto outcome = client.predict(probe_request(99, 64), 0xC0FFEE);
  ASSERT_TRUE(outcome.ok) << outcome.message;
  EXPECT_EQ(outcome.response.version, 1u);
  EXPECT_EQ(outcome.response.samples, expected_samples(99, 64));

  // Same request, same seed: byte-identical distribution (per-request Rng).
  const auto again = client.predict(probe_request(99, 64));
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.response.samples, outcome.response.samples);

  // Different seed: a different draw.
  const auto other = client.predict(probe_request(100, 64));
  ASSERT_TRUE(other.ok);
  EXPECT_NE(other.response.samples, outcome.response.samples);
}

TEST(ServeEndToEnd, TypedErrorsComeBackInBand) {
  serve::ModelRegistry registry;
  registry.publish("demo", fresh_predictor());
  serve::Server server(registry, serve::ServerConfig{});
  serve::Client client(server.port());

  auto unknown = probe_request();
  unknown.model = "nope";
  const auto u = client.predict(unknown);
  EXPECT_FALSE(u.ok);
  EXPECT_EQ(u.code, ErrorCode::kUnknownModel);

  auto unknown_version = probe_request();
  unknown_version.version = 7;
  const auto v = client.predict(unknown_version);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.code, ErrorCode::kUnknownModel);

  auto bad = probe_request();
  bad.runtimes.clear();
  bad.counters.clear();
  const auto b = client.predict(bad);
  EXPECT_FALSE(b.ok);
  EXPECT_EQ(b.code, ErrorCode::kBadRequest);

  // The connection survives every typed error.
  EXPECT_TRUE(client.ping());
}

TEST(ServeEndToEnd, MalformedBodyAnsweredInBandConnectionSurvives) {
  serve::ModelRegistry registry;
  registry.publish("demo", fresh_predictor());
  serve::Server server(registry, serve::ServerConfig{});

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // A predict frame whose body is garbage decodes to kError kMalformed;
  // the frame boundary is intact, so the connection stays usable.
  ASSERT_TRUE(serve::write_frame(fd, MsgType::kPredict, 5, "garbage"));
  auto reply = serve::read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kError);
  EXPECT_EQ(reply->trace_id, 5u);
  EXPECT_EQ(serve::ErrorResponse::parse(reply->body).code,
            ErrorCode::kMalformed);

  ASSERT_TRUE(serve::write_frame(fd, MsgType::kPing, 6, ""));
  reply = serve::read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kPingOk);
  close(fd);
}

TEST(ServeEndToEnd, SwapListAndStats) {
  // RED metrics are recorded only when observability is on (daemon default).
  obs::reset();
  obs::set_mode(obs::Mode::kSummary);
  const std::string path = save_model_file("serve_swap_model.vp");
  serve::ModelRegistry registry;
  registry.publish("demo", fresh_predictor());
  serve::Server server(registry, serve::ServerConfig{});
  serve::Client client(server.port());

  EXPECT_EQ(client.swap("demo", path), 2u);
  EXPECT_THROW(client.swap("demo", "no_such_file.vp"),
               std::invalid_argument);

  const auto list = client.list();
  ASSERT_EQ(list.entries.size(), 1u);
  EXPECT_EQ(list.entries[0].model, "demo");
  EXPECT_EQ(list.entries[0].version, 2u);
  EXPECT_EQ(list.entries[0].source, path);
  EXPECT_EQ(list.entries[0].source_system, "amd");

  // The new version serves; the pre-swap version stays resolvable.
  auto pinned = probe_request();
  pinned.version = 1;
  const auto old = client.predict(pinned);
  ASSERT_TRUE(old.ok);
  EXPECT_EQ(old.response.version, 1u);
  const auto fresh = client.predict(probe_request());
  ASSERT_TRUE(fresh.ok);
  EXPECT_EQ(fresh.response.version, 2u);

  const std::string stats = client.stats();
  EXPECT_NE(stats.find("varpred_serve_predict_requests"), std::string::npos);
  EXPECT_NE(stats.find("varpred_serve_predict_demo_v2_requests"),
            std::string::npos);
  std::remove(path.c_str());
  obs::set_mode(obs::Mode::kOff);
  obs::reset();
}

TEST(ServeEndToEnd, HotSwapMidLoadDropsZeroRequests) {
  serve::ModelRegistry registry;
  registry.publish("demo", fresh_predictor());
  serve::ServerConfig config;
  config.queue_max = 1024;  // this test measures drops, not admission
  serve::Server server(registry, config);

  constexpr int kThreads = 3;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> saw_v2{false};
  std::mutex versions_mu;
  std::set<std::uint64_t> versions;

  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      serve::Client client(server.port());
      const auto request = probe_request(1000 + t, 16);
      while (!done.load()) {
        const auto outcome = client.predict(request);
        if (!outcome.ok) {
          failures.fetch_add(1);
          continue;
        }
        completed.fetch_add(1);
        {
          std::lock_guard<std::mutex> lock(versions_mu);
          versions.insert(outcome.response.version);
        }
        if (outcome.response.version == 2) saw_v2.store(true);
      }
    });
  }

  // Let v1 serve some traffic, hot-swap, then wait until v2 responses flow.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (completed.load() < 8 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  registry.publish("demo", fresh_predictor());
  while (!saw_v2.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true);
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);  // zero dropped or failed requests
  EXPECT_TRUE(versions.count(1) == 1 && versions.count(2) == 1)
      << "expected responses from both model versions across the swap";
}

TEST(ServeEndToEnd, StopWhileClientsConnectInALoop) {
  // stop() shuts the listener down, joins the accept thread and only then
  // closes the fd; the accept thread works on its own copy. Clients keep
  // connecting throughout, so accept() is live when stop()
  // runs; the sanitizer job checks there is no race on the listener.
  serve::ModelRegistry registry;
  registry.publish("demo", fresh_predictor());
  auto server =
      std::make_unique<serve::Server>(registry, serve::ServerConfig{});
  const std::uint16_t port = server->port();

  std::atomic<bool> done{false};
  std::atomic<int> connects{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&] {
      while (!done.load()) {
        const int fd = socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) continue;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        // Connect and hang up without writing: a write racing the
        // server's shutdown could raise SIGPIPE in this process.
        if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
            0) {
          connects.fetch_add(1);
        }
        close(fd);
      }
    });
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (connects.load() < 20 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server->stop();
  server->stop();  // idempotent
  server.reset();
  done.store(true);
  for (auto& t : clients) t.join();
  EXPECT_GE(connects.load(), 20);
}

// ---------------------------------------------------------------------------
// Admission, compute errors and shutdown, through ServerConfig::compute.

/// Compute hook body that counts its callers and holds them until opened.
class Gate {
 public:
  std::vector<double> pass() {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
    return {1.0};
  }

  /// Waits (bounded) until `n` callers have entered pass().
  bool wait_entered(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30),
                        [&] { return entered_ >= n; });
  }

  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  std::size_t entered() {
    std::lock_guard<std::mutex> lock(mu_);
    return entered_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t entered_ = 0;
  bool open_ = false;
};

/// Client threads, each sending one predict; on scope exit the gate opens
/// and every thread is joined, so a failed assertion cannot leave a thread
/// blocked in the server or unjoined.
class PredictClients {
 public:
  PredictClients(std::uint16_t port, Gate& gate) : port_(port), gate_(gate) {}
  ~PredictClients() { join(); }
  PredictClients(const PredictClients&) = delete;
  PredictClients& operator=(const PredictClients&) = delete;

  void send() {
    threads_.emplace_back([this] {
      try {
        serve::Client client(port_);
        if (client.predict(probe_request()).ok) ok_.fetch_add(1);
      } catch (const std::exception&) {
        // Transport failure (the server stopped mid-request): not ok.
      }
    });
  }

  void join() {
    gate_.open();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  std::size_t ok() const { return ok_.load(); }

 private:
  std::uint16_t port_;
  Gate& gate_;
  std::vector<std::thread> threads_;
  std::atomic<std::size_t> ok_{0};
};

/// Waits (bounded) until the serve.queue_depth gauge reads `depth`.
bool wait_for_queue_depth(double depth) {
  auto& gauge = obs::Registry::global().gauge("serve.queue_depth");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (gauge.value() != depth) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// A raw loopback connection whose reads give up after 30 s, so a request
/// the server never answers fails the test instead of hanging it.
int connect_with_read_timeout(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{};
  timeout.tv_sec = 30;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

std::size_t live_threads() {
  std::size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

TEST(ServeAdmission, OverloadRejectsBeyondSlotsAndQueueMax) {
  // The queue-depth gauge is recorded only when observability is on.
  obs::reset();
  obs::set_mode(obs::Mode::kSummary);
  serve::ModelRegistry registry;
  registry.publish("demo", fresh_predictor());
  Gate gate;
  serve::ServerConfig config;
  config.queue_max = 2;
  config.compute = [&](const serve::PredictRequest&,
                       const serve::LoadedModel&) { return gate.pass(); };
  serve::Server server(registry, config);
  const std::size_t slots = ThreadPool::global().worker_count();

  PredictClients clients(server.port(), gate);
  // Every compute slot is taken by a request blocked in the hook...
  for (std::size_t i = 0; i < slots; ++i) clients.send();
  ASSERT_TRUE(gate.wait_entered(slots));
  // ...then queue_max more wait for a slot...
  for (std::size_t i = 0; i < config.queue_max; ++i) clients.send();
  ASSERT_TRUE(wait_for_queue_depth(2.0));

  // ...so the next request is refused at once, and its connection stays.
  const int fd = connect_with_read_timeout(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(serve::write_frame(fd, MsgType::kPredict, 9,
                                 probe_request().body()));
  std::optional<Frame> reply;
  EXPECT_NO_THROW(reply = serve::read_frame(fd));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kError);
  EXPECT_EQ(serve::ErrorResponse::parse(reply->body).code,
            ErrorCode::kOverloaded);
  ASSERT_TRUE(serve::write_frame(fd, MsgType::kPing, 10, ""));
  reply = serve::read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kPingOk);
  close(fd);

  // Once the hook lets go, every admitted request completes ok.
  clients.join();
  EXPECT_EQ(clients.ok(), slots + config.queue_max);
  EXPECT_EQ(gate.entered(), slots + config.queue_max);
  obs::set_mode(obs::Mode::kOff);
  obs::reset();
}

TEST(ServeAdmission, ComputeExceptionsMapToTypedErrors) {
  serve::ModelRegistry registry;
  registry.publish("demo", fresh_predictor());
  serve::ServerConfig config;
  config.compute = [](const serve::PredictRequest& request,
                      const serve::LoadedModel&) -> std::vector<double> {
    if (request.seed == 1) throw std::invalid_argument("bad shape");
    if (request.seed == 2) throw std::runtime_error("boom");
    return {static_cast<double>(request.seed)};
  };
  serve::Server server(registry, config);
  serve::Client client(server.port());

  const auto bad = client.predict(probe_request(1));
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.code, ErrorCode::kBadRequest);
  EXPECT_EQ(bad.message, "bad shape");
  const auto internal = client.predict(probe_request(2));
  EXPECT_FALSE(internal.ok);
  EXPECT_EQ(internal.code, ErrorCode::kInternal);
  EXPECT_EQ(internal.message, "boom");

  // The connection survives both and keeps serving.
  EXPECT_TRUE(client.ping());
  const auto good = client.predict(probe_request(3));
  ASSERT_TRUE(good.ok);
  EXPECT_EQ(good.response.samples, std::vector<double>{3.0});
}

TEST(ServeAdmission, StopWaitsForLiveComputes) {
  obs::reset();
  obs::set_mode(obs::Mode::kSummary);
  serve::ModelRegistry registry;
  registry.publish("demo", fresh_predictor());
  const std::size_t slots = ThreadPool::global().worker_count();
  const std::size_t threads_before = live_threads();

  Gate gate;
  std::atomic<std::size_t> finished{0};
  serve::ServerConfig config;
  config.compute = [&](const serve::PredictRequest&,
                       const serve::LoadedModel&) {
    auto samples = gate.pass();
    finished.fetch_add(1);
    return samples;
  };
  auto server = std::make_unique<serve::Server>(registry, config);
  {
    PredictClients clients(server->port(), gate);
    // Every slot mid-compute, plus one request waiting for a slot.
    for (std::size_t i = 0; i < slots + 1; ++i) clients.send();
    ASSERT_TRUE(gate.wait_entered(slots));
    ASSERT_TRUE(wait_for_queue_depth(1.0));

    // stop() runs while the computes are held; the gate opens from another
    // thread shortly after, and stop() must wait for all of them.
    std::thread opener([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      gate.open();
    });
    server->stop();
    EXPECT_EQ(finished.load(), slots + 1);
    opener.join();
  }
  server.reset();

  // Every connection thread exits: the thread count returns to its value
  // before the server started.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (live_threads() > threads_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(live_threads(), threads_before);
  obs::set_mode(obs::Mode::kOff);
  obs::reset();
}

/// Resident set size of this process, from /proc/self/statm.
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  std::size_t resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(ServeAdmission, LyingLengthPrefixPinsLittleMemory) {
  // Four peers each announce a full-size payload, send 10 bytes of it and
  // stall. The server must not reserve the announced 64 MiB per connection
  // up front: the body grows only as bytes arrive.
  obs::reset();
  obs::set_mode(obs::Mode::kSummary);
  serve::ModelRegistry registry;
  serve::Server server(registry, serve::ServerConfig{});
  const std::size_t before = resident_bytes();
  std::string stalled = serve::encode_frame(MsgType::kPredict, 1, "x");
  std::memcpy(stalled.data(), &serve::kMaxFramePayload, 4);
  std::vector<int> fds;
  for (int i = 0; i < 4; ++i) {
    const int fd = connect_with_read_timeout(server.port());
    if (fd < 0) break;
    fds.push_back(fd);
    if (write(fd, stalled.data(), stalled.size()) !=
        static_cast<ssize_t>(stalled.size())) {
      break;
    }
  }
  EXPECT_EQ(fds.size(), 4u);
  // Every connection is accepted; give their threads time to take the bytes.
  auto& connections = obs::Registry::global().gauge("serve.connections");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (connections.value() < static_cast<double>(fds.size()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(connections.value(), static_cast<double>(fds.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::size_t after = resident_bytes();
  EXPECT_LT(after, before + (32u << 20))
      << "resident memory grew by " << ((after - before) >> 20) << " MiB";

  server.stop();  // returns although every peer is still mid-frame
  for (const int fd : fds) close(fd);
  obs::set_mode(obs::Mode::kOff);
  obs::reset();
}

// ---------------------------------------------------------------------------
// Trace-id propagation.

TEST(ServeTracing, TraceIdScopeNestsAndRestores) {
  EXPECT_EQ(obs::current_trace_id(), 0u);
  {
    obs::TraceIdScope outer(11);
    EXPECT_EQ(obs::current_trace_id(), 11u);
    {
      obs::TraceIdScope inner(22);
      EXPECT_EQ(obs::current_trace_id(), 22u);
    }
    EXPECT_EQ(obs::current_trace_id(), 11u);
  }
  EXPECT_EQ(obs::current_trace_id(), 0u);
}

TEST(ServeTracing, ComputeSpanNestsInRequestSpan) {
  obs::reset();
  obs::set_mode(obs::Mode::kTrace);

  constexpr std::uint64_t kTraceId = 0xFEEDFACE;
  {
    serve::ModelRegistry registry;
    registry.publish("demo", fresh_predictor());
    serve::Server server(registry, serve::ServerConfig{});
    serve::Client client(server.port());
    const auto outcome = client.predict(probe_request(7, 16), kTraceId);
    ASSERT_TRUE(outcome.ok);
    server.stop();  // joins every thread: all spans are closed
  }

  std::vector<obs::TraceEvent> request;
  std::vector<obs::TraceEvent> compute;
  for (const auto& event : obs::trace_events()) {
    if (event.trace_id != kTraceId) continue;
    if (event.name == "serve.request") request.push_back(event);
    if (event.name == "serve.compute") compute.push_back(event);
  }
  obs::set_mode(obs::Mode::kOff);
  obs::reset();

  // Both spans carry the request's trace id, and the compute runs inside
  // the request that admitted it.
  ASSERT_EQ(request.size(), 1u);
  ASSERT_EQ(compute.size(), 1u);
  EXPECT_LE(request[0].start_ns, compute[0].start_ns);
  EXPECT_LE(compute[0].start_ns + compute[0].dur_ns,
            request[0].start_ns + request[0].dur_ns);
}

// ---------------------------------------------------------------------------
// Prometheus exposition under concurrent load (TSan coverage): worker
// threads hammer the serve metrics while the exporter path snapshots and
// renders the registry.

TEST(ServeStats, PrometheusSnapshotUnderConcurrentLoad) {
  obs::reset();
  obs::set_mode(obs::Mode::kSummary);

  // Register the metrics up front: on a single-core host the snapshot loop
  // below can run to completion before any worker thread is scheduled, and
  // an unregistered name would be absent from those early snapshots.
  obs::Registry::global().counter("serve.predict.requests").add(1);
  obs::Registry::global().hdr("serve.predict.duration_ns").record(1);

  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      auto& registry = obs::Registry::global();
      auto& requests = registry.counter("serve.predict.requests");
      auto& duration = registry.hdr("serve.predict.duration_ns");
      auto& depth = registry.gauge("serve.queue_depth");
      std::uint64_t i = 0;
      while (!done.load()) {
        requests.add(1);
        duration.record(1000 * (t + 1) + i % 997);
        depth.set(static_cast<double>(i % 32));
        ++i;
      }
    });
  }

  for (int round = 0; round < 50; ++round) {
    const auto snap = obs::Registry::global().snapshot();
    const std::string text = obs::prometheus_text(snap);
    EXPECT_NE(text.find("varpred_serve_predict_requests"),
              std::string::npos);
  }
  done.store(true);
  for (auto& t : workers) t.join();

  const auto snap = obs::Registry::global().snapshot();
  const std::string text = obs::prometheus_text(snap);
  EXPECT_NE(text.find("varpred_serve_predict_duration_ns"),
            std::string::npos);
  obs::set_mode(obs::Mode::kOff);
  obs::reset();
}

}  // namespace
}  // namespace varpred
