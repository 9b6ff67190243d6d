// Wire-protocol tests (serve/wire.hpp): every field of every message
// round-trips BIT-identically (including NaN payloads, infinities, and
// signed zeros in the series/logits); malformed frames — truncated at every
// byte boundary, garbage magic/version/type, oversized or inconsistent
// declared lengths, trailing bytes after the last field, length fields whose
// product would overflow — throw typed CheckError and never over-read; and
// the socket transport reassembles partial reads, distinguishes a clean EOF
// at a frame boundary (false) from a peer dying mid-frame (WireIoError), and
// round-trips frames over a real socketpair. Same corruption-granularity
// style as the .dfrm reader tests in test_artifact_store.cpp.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "serve/wire.hpp"
#include "util/check.hpp"

namespace {

using namespace dfr;
using namespace dfr::serve;
using namespace dfr::serve::wire;

// Doubles whose bit patterns a lossy path would destroy: quiet NaN with a
// payload, signaling-NaN-ish pattern, +/-inf, -0.0, a denormal, and an
// ordinary value.
std::vector<double> tricky_doubles() {
  return {std::bit_cast<double>(0x7ff8dead'beef0001ull),
          std::bit_cast<double>(0x7ff00000'00000001ull),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          -0.0,
          std::numeric_limits<double>::denorm_min(),
          1.25e-3};
}

Matrix tricky_series() {
  const std::vector<double> values = tricky_doubles();
  Matrix series(3, values.size());
  for (std::size_t r = 0; r < series.rows(); ++r) {
    for (std::size_t c = 0; c < series.cols(); ++c) {
      series(r, c) = values[(r * series.cols() + c) % values.size()] *
                     (r % 2 == 0 ? 1.0 : -1.0);
    }
  }
  return series;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Patch `bytes` little-endian at `offset` (headers and length fields).
template <typename T>
void patch(std::vector<std::byte>& frame, std::size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), frame.size());
  std::memcpy(frame.data() + offset, &value, sizeof(T));
}

WireRequest sample_request() {
  WireRequest request;
  request.seq = 0xfeedface12345678ull;
  request.model_id = "models/clinical-ecg.v7";
  request.options.engine = EngineVariant::kQuantized;
  request.options.deadline_us = 123456789ull;
  request.options.priority = -7;
  request.series = tricky_series();
  return request;
}

// ---- round-trip bit-identity ----------------------------------------------

TEST(WireRoundTrip, RequestEveryFieldBitIdentical) {
  const WireRequest request = sample_request();
  std::vector<std::byte> frame;
  encode_request(request, frame);

  const WireRequest decoded = decode_request(frame);
  EXPECT_EQ(decoded.seq, request.seq);
  EXPECT_EQ(decoded.model_id, request.model_id);
  EXPECT_EQ(decoded.options.deadline_us, request.options.deadline_us);
  EXPECT_EQ(decoded.options.priority, request.options.priority);
  EXPECT_EQ(decoded.options.engine, EngineVariant::kQuantized);
  ASSERT_EQ(decoded.series.rows(), request.series.rows());
  ASSERT_EQ(decoded.series.cols(), request.series.cols());
  for (std::size_t i = 0; i < request.series.size(); ++i) {
    EXPECT_TRUE(same_bits(decoded.series.data()[i], request.series.data()[i]))
        << "series element " << i;
  }
}

TEST(WireRoundTrip, EveryEngineVariantSurvives) {
  const auto variants = {
      RequestOptions{.engine = EngineVariant::kFloat},
      RequestOptions{.engine = EngineVariant::kQuantized},
  };
  const Matrix series(1, 1);
  for (const RequestOptions& options : variants) {
    WireRequest request;
    request.model_id = "m";
    request.options = options;
    request.series = series;
    std::vector<std::byte> frame;
    encode_request(request, frame);
    const WireRequest decoded = decode_request(frame);
    EXPECT_EQ(decoded.options.engine, options.engine);
  }
}

TEST(WireRoundTrip, ResponseEveryStatusAndTrickyLogits) {
  for (int s = 0; s <= static_cast<int>(WireStatus::kUnavailable); ++s) {
    WireResponse response;
    response.seq = 42 + static_cast<std::uint64_t>(s);
    response.status = static_cast<WireStatus>(s);
    response.label = s - 3;
    response.latency_us = std::bit_cast<double>(0x7ff8000000000042ull);
    response.logits = tricky_doubles();
    std::vector<std::byte> frame;
    encode_response(response, frame);
    const WireResponse decoded = decode_response(frame);
    EXPECT_EQ(decoded.seq, response.seq);
    EXPECT_EQ(decoded.status, response.status);
    EXPECT_EQ(decoded.label, response.label);
    EXPECT_TRUE(same_bits(decoded.latency_us, response.latency_us));
    ASSERT_EQ(decoded.logits.size(), response.logits.size());
    for (std::size_t i = 0; i < response.logits.size(); ++i) {
      EXPECT_TRUE(same_bits(decoded.logits[i], response.logits[i]));
    }
  }
}

TEST(WireRoundTrip, HealthAndDrainFrames) {
  std::vector<std::byte> frame;
  encode_health_response(HealthInfo{true, false, 12}, 7, frame);
  const HealthInfo info = decode_health_response(frame);
  EXPECT_TRUE(info.accepting);
  EXPECT_FALSE(info.draining);
  EXPECT_EQ(info.models, 12u);

  frame.clear();
  encode_health_request(8, frame);
  EXPECT_EQ(decode_header(frame).type,
            static_cast<std::uint16_t>(MessageType::kHealthRequest));
  EXPECT_EQ(decode_header(frame).seq, 8u);
  EXPECT_EQ(decode_header(frame).body_bytes, 0u);

  frame.clear();
  encode_drain_request(9, frame);
  EXPECT_EQ(decode_header(frame).type,
            static_cast<std::uint16_t>(MessageType::kDrainRequest));
  frame.clear();
  encode_drain_response(10, frame);
  EXPECT_EQ(decode_header(frame).type,
            static_cast<std::uint16_t>(MessageType::kDrainResponse));
  EXPECT_EQ(decode_header(frame).seq, 10u);
}

TEST(WireRoundTrip, HealthV2LoadFieldsRoundTrip) {
  HealthInfo sent;
  sent.accepting = true;
  sent.draining = false;
  sent.models = 3;
  sent.queue_depth = 17;
  sent.queue_capacity = 256;
  sent.ewma_service_us = 123.456;
  std::vector<std::byte> frame;
  encode_health_response(sent, 11, frame);
  const HealthInfo got = decode_health_response(frame);
  EXPECT_EQ(got.queue_depth, 17u);
  EXPECT_EQ(got.queue_capacity, 256u);
  EXPECT_DOUBLE_EQ(got.ewma_service_us, 123.456);  // bit-identical double

  // The wire slot for queue depth is the old u16 reserved field; deeper
  // queues saturate instead of wrapping.
  sent.queue_depth = 1u << 20;
  frame.clear();
  encode_health_response(sent, 12, frame);
  EXPECT_EQ(decode_health_response(frame).queue_depth, 0xffffu);
}

TEST(WireRoundTrip, HealthV1BodyStillDecodes) {
  // A v1 peer sends the 8-byte health body under header version 1. The
  // decoder must accept both (kWireVersionMin) and default the missing load
  // fields to zero — the router then treats the sample as load-less rather
  // than failing the probe.
  HealthInfo sent;
  sent.accepting = true;
  sent.draining = true;
  sent.models = 9;
  sent.queue_depth = 5;
  sent.queue_capacity = 64;
  sent.ewma_service_us = 77.0;
  std::vector<std::byte> frame;
  encode_health_response(sent, 13, frame);
  // Truncate the body back to the v1 layout and re-stamp header fields.
  frame.resize(sizeof(FrameHeader) + 8);
  patch<std::uint16_t>(frame, 4, 1);    // header version: v1
  patch<std::uint64_t>(frame, 16, 8);   // body_bytes: v1 health body
  const HealthInfo got = decode_health_response(frame);
  EXPECT_TRUE(got.accepting);
  EXPECT_TRUE(got.draining);
  EXPECT_EQ(got.models, 9u);
  EXPECT_EQ(got.queue_depth, 5u);  // the u16 was the reserved slot all along
  EXPECT_EQ(got.queue_capacity, 0u);
  EXPECT_DOUBLE_EQ(got.ewma_service_us, 0.0);
}

TEST(WireRoundTrip, StatusMirrorsRequestStatus) {
  EXPECT_EQ(to_wire_status(RequestStatus::kOk), WireStatus::kOk);
  EXPECT_EQ(to_wire_status(RequestStatus::kQueueFull), WireStatus::kQueueFull);
  EXPECT_EQ(to_wire_status(RequestStatus::kDeadlineExceeded),
            WireStatus::kDeadlineExceeded);
}

// ---- malformed frames ------------------------------------------------------

TEST(WireMalformed, TruncationAtEveryByteIsTyped) {
  std::vector<std::byte> frame;
  encode_request(sample_request(), frame);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const std::vector<std::byte> cut(frame.begin(),
                                     frame.begin() + static_cast<long>(len));
    EXPECT_THROW((void)decode_request(cut), CheckError) << "length " << len;
  }
  // The intact frame still decodes — the loop above proved strictness, this
  // proves it is not rejecting everything.
  EXPECT_NO_THROW((void)decode_request(frame));
}

TEST(WireMalformed, GarbageMagicVersionTypeRejected) {
  std::vector<std::byte> good;
  encode_request(sample_request(), good);

  auto copy = good;
  copy[0] = std::byte{'X'};
  EXPECT_THROW((void)decode_header(copy), CheckError);

  copy = good;
  patch<std::uint16_t>(copy, 4, kWireVersion + 1);  // future version
  EXPECT_THROW((void)decode_header(copy), CheckError);

  copy = good;
  patch<std::uint16_t>(copy, 6, 0);  // type below range
  EXPECT_THROW((void)decode_header(copy), CheckError);
  patch<std::uint16_t>(copy, 6, 7);  // type above range
  EXPECT_THROW((void)decode_header(copy), CheckError);
}

TEST(WireMalformed, DeclaredBodyMustMatchAndRespectCap) {
  std::vector<std::byte> good;
  encode_request(sample_request(), good);

  // body_bytes lies small / large while the buffer stays the same size.
  auto copy = good;
  patch<std::uint64_t>(copy, 16, good.size() - sizeof(FrameHeader) - 1);
  EXPECT_THROW((void)decode_header(copy), CheckError);
  patch<std::uint64_t>(copy, 16, good.size() - sizeof(FrameHeader) + 1);
  EXPECT_THROW((void)decode_header(copy), CheckError);

  // A body claiming to be astronomically large is rejected by the cap even
  // though nothing is allocated for it.
  patch<std::uint64_t>(copy, 16, kMaxFrameBytes + 1);
  EXPECT_THROW((void)decode_header(copy), CheckError);
  patch<std::uint64_t>(copy, 16, std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW((void)decode_header(copy), CheckError);

  // Trailing garbage after a self-consistent body: the header check catches
  // the mismatch.
  copy = good;
  copy.push_back(std::byte{0});
  EXPECT_THROW((void)decode_header(copy), CheckError);
}

TEST(WireMalformed, TrailingBytesInsideBodyRejected) {
  // Keep header and body_bytes self-consistent but append a byte AFTER the
  // last real field — only the decoder's finish() check can catch this one.
  std::vector<std::byte> frame;
  encode_request(sample_request(), frame);
  frame.push_back(std::byte{0xAB});
  patch<std::uint64_t>(frame, 16, frame.size() - sizeof(FrameHeader));
  EXPECT_NO_THROW((void)decode_header(frame));
  EXPECT_THROW((void)decode_request(frame), CheckError);
}

TEST(WireMalformed, SeriesDimensionLiesNeverOverRead) {
  std::vector<std::byte> frame;
  const WireRequest request = sample_request();
  encode_request(request, frame);
  // Offsets inside the body: fixed options block, then the id, then dims.
  const std::size_t dims_off = sizeof(FrameHeader) + 1 + 1 + 2 + 4 + 8 + 4 +
                               request.model_id.size();

  // rows * cols would overflow 64 bits to a small number; the division-form
  // bound must reject it before any multiplication happens.
  auto copy = frame;
  patch<std::uint64_t>(copy, dims_off, 1ull << 40);
  patch<std::uint64_t>(copy, dims_off + 8, 1ull << 40);
  EXPECT_THROW((void)decode_request(copy), CheckError);

  // Dims larger than the payload actually present.
  copy = frame;
  patch<std::uint64_t>(copy, dims_off, request.series.rows() + 1);
  EXPECT_THROW((void)decode_request(copy), CheckError);
  copy = frame;
  patch<std::uint64_t>(copy, dims_off + 8, request.series.cols() + 1);
  EXPECT_THROW((void)decode_request(copy), CheckError);

  // Dims SMALLER than the payload leave trailing bytes — also rejected.
  copy = frame;
  patch<std::uint64_t>(copy, dims_off, request.series.rows() - 1);
  EXPECT_THROW((void)decode_request(copy), CheckError);
}

TEST(WireMalformed, ModelIdAndLogitsLengthLiesRejected) {
  std::vector<std::byte> frame;
  encode_request(sample_request(), frame);
  const std::size_t id_len_off = sizeof(FrameHeader) + 1 + 1 + 2 + 4 + 8;
  patch<std::uint32_t>(frame, id_len_off, 0x7fffffffu);
  EXPECT_THROW((void)decode_request(frame), CheckError);

  WireResponse response;
  response.logits = {1.0, 2.0};
  std::vector<std::byte> reply;
  encode_response(response, reply);
  const std::size_t logits_len_off = sizeof(FrameHeader) + 4 + 4 + 8;
  patch<std::uint32_t>(reply, logits_len_off, 0x7fffffffu);
  EXPECT_THROW((void)decode_response(reply), CheckError);
}

TEST(WireMalformed, BadEngineEncodingRejected) {
  std::vector<std::byte> frame;
  encode_request(sample_request(), frame);
  constexpr std::size_t kFamily = sizeof(FrameHeader);
  constexpr std::size_t kKind = kFamily + 1;
  EXPECT_EQ(frame[kKind], std::byte{0}) << "the kind byte is written as 0";
  // Kind bytes 1 (scalar) and 2 (simd) from older encoders still decode, to
  // the family's variant: the kernels are the serving process's choice.
  const std::pair<std::uint8_t, EngineVariant> families[] = {
      {0, EngineVariant::kFloat}, {1, EngineVariant::kQuantized}};
  for (const auto& [family, variant] : families) {
    for (const std::uint8_t kind : {std::uint8_t{1}, std::uint8_t{2}}) {
      auto copy = frame;
      patch<std::uint8_t>(copy, kFamily, family);
      patch<std::uint8_t>(copy, kKind, kind);
      EXPECT_EQ(decode_request(copy).options.engine, variant)
          << "family " << int{family} << " kind " << int{kind};
    }
  }
  auto copy = frame;
  patch<std::uint8_t>(copy, kFamily, 2);  // family beyond quantized
  EXPECT_THROW((void)decode_request(copy), CheckError);
  copy = frame;
  patch<std::uint8_t>(copy, kKind, 3);  // kind beyond the old simd value
  EXPECT_THROW((void)decode_request(copy), CheckError);
}

TEST(WireMalformed, WrongMessageTypeForDecoderRejected) {
  std::vector<std::byte> frame;
  encode_health_request(1, frame);
  EXPECT_THROW((void)decode_request(frame), CheckError);
  EXPECT_THROW((void)decode_response(frame), CheckError);
  EXPECT_THROW((void)decode_health_response(frame), CheckError);
}

// ---- transport over a real socketpair -------------------------------------

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(WireTransport, FrameRoundTripOverSocket) {
  SocketPair pair;
  std::vector<std::byte> frame;
  encode_request(sample_request(), frame);
  write_frame(pair.a, frame);

  std::vector<std::byte> received;
  ASSERT_TRUE(read_frame(pair.b, received));
  ASSERT_EQ(received.size(), frame.size());
  EXPECT_EQ(std::memcmp(received.data(), frame.data(), frame.size()), 0);
}

TEST(WireTransport, PartialWritesReassemble) {
  SocketPair pair;
  std::vector<std::byte> frame;
  encode_request(sample_request(), frame);

  // Dribble the frame one byte at a time from another thread; read_frame
  // must block and reassemble exactly one frame.
  std::thread writer([&] {
    for (const std::byte b : frame) {
      ASSERT_EQ(::send(pair.a, &b, 1, 0), 1);
    }
  });
  std::vector<std::byte> received;
  ASSERT_TRUE(read_frame(pair.b, received));
  writer.join();
  ASSERT_EQ(received.size(), frame.size());
  EXPECT_EQ(std::memcmp(received.data(), frame.data(), frame.size()), 0);
  const WireRequest decoded = decode_request(received);
  EXPECT_EQ(decoded.model_id, sample_request().model_id);
}

TEST(WireTransport, CleanEofAtBoundaryIsFalse) {
  SocketPair pair;
  ::close(pair.a);
  pair.a = -1;
  std::vector<std::byte> frame;
  EXPECT_FALSE(read_frame(pair.b, frame));
}

TEST(WireTransport, EofMidHeaderAndMidBodyAreIoErrors) {
  {
    SocketPair pair;
    const std::byte partial[7] = {};
    ASSERT_EQ(::send(pair.a, partial, sizeof(partial), 0),
              static_cast<ssize_t>(sizeof(partial)));
    ::close(pair.a);
    pair.a = -1;
    std::vector<std::byte> frame;
    EXPECT_THROW((void)read_frame(pair.b, frame), WireIoError);
  }
  {
    SocketPair pair;
    std::vector<std::byte> full;
    encode_request(sample_request(), full);
    ASSERT_EQ(::send(pair.a, full.data(), full.size() - 5, 0),
              static_cast<ssize_t>(full.size() - 5));
    ::close(pair.a);
    pair.a = -1;
    std::vector<std::byte> frame;
    EXPECT_THROW((void)read_frame(pair.b, frame), WireIoError);
  }
}

TEST(WireTransport, HostileHeaderRejectedBeforeBodyAllocation) {
  SocketPair pair;
  std::vector<std::byte> frame;
  encode_request(sample_request(), frame);
  patch<std::uint64_t>(frame, 16, std::numeric_limits<std::uint64_t>::max());
  write_frame(pair.a, frame);
  std::vector<std::byte> received;
  // The reader must reject the declared length from the header alone —
  // otherwise it would try to allocate ~16 EiB or block reading it.
  EXPECT_THROW((void)read_frame(pair.b, received), CheckError);
}

TEST(WireTransport, WriteToClosedPeerIsIoErrorNotSignal) {
  SocketPair pair;
  ::close(pair.b);
  pair.b = -1;
  std::vector<std::byte> frame;
  encode_request(sample_request(), frame);
  // Without MSG_NOSIGNAL this would SIGPIPE and kill the process; the first
  // or second write must instead surface a typed WireIoError.
  try {
    write_frame(pair.a, frame);
    write_frame(pair.a, frame);
    FAIL() << "expected WireIoError";
  } catch (const WireIoError&) {
  }
}

// ---- endpoints -------------------------------------------------------------

TEST(WireEndpoint, ParseAndToStringRoundTrip) {
  const Endpoint unix_ep = parse_endpoint("unix:/tmp/dfr_test.sock");
  EXPECT_EQ(unix_ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep.host_or_path, "/tmp/dfr_test.sock");
  EXPECT_EQ(unix_ep.to_string(), "unix:/tmp/dfr_test.sock");

  const Endpoint tcp_ep = parse_endpoint("tcp:127.0.0.1:8421");
  EXPECT_EQ(tcp_ep.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp_ep.host_or_path, "127.0.0.1");
  EXPECT_EQ(tcp_ep.port, 8421);
  EXPECT_EQ(tcp_ep.to_string(), "tcp:127.0.0.1:8421");

  EXPECT_THROW((void)parse_endpoint("http://nope"), dfr::CheckError);
  EXPECT_THROW((void)parse_endpoint("tcp:hostonly"), dfr::CheckError);
  EXPECT_THROW((void)parse_endpoint("tcp:host:notaport"), dfr::CheckError);
  EXPECT_THROW((void)parse_endpoint("unix:"), dfr::CheckError);
  EXPECT_THROW((void)parse_endpoint(""), dfr::CheckError);
}

TEST(WireEndpoint, ParseRejectsMalformedSpecsTyped) {
  // Every rejection is a typed CheckError (config error), never an
  // IoError (transport) and never an accept-with-garbage.
  const char* bad[] = {
      "",                      // empty spec
      "unix:",                 // empty unix path
      "tcp:",                  // no host, no port
      "tcp:host",              // missing port
      "tcp::8421",             // empty host
      "tcp:host:",             // empty port
      "tcp:host:notaport",     // non-numeric port
      "tcp:host:8421x",        // trailing garbage after the port
      "tcp:host:84 21",        // embedded whitespace
      "tcp:host:-1",           // negative port
      "tcp:host:65536",        // port above u16 range
      "tcp:host:999999999999", // port overflows parse
      "http://nope",           // unknown scheme
      "udp:host:53",           // unknown scheme, well-formed shape
      "UNIX:/tmp/x.sock",      // schemes are case-sensitive
  };
  for (const char* spec : bad) {
    EXPECT_THROW((void)parse_endpoint(spec), dfr::CheckError) << spec;
  }
  // Boundary sanity: the largest valid port still parses.
  EXPECT_EQ(parse_endpoint("tcp:host:65535").port, 65535);
}

TEST(WireEndpoint, ConnectToNothingIsIoError) {
  EXPECT_THROW((void)connect_endpoint(
                   parse_endpoint("unix:/tmp/dfr_no_such_shard.sock")),
               WireIoError);
}

}  // namespace
