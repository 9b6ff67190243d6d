#include "serve/wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <limits>

#include "util/check.hpp"

namespace dfr::serve::wire {
namespace {

// ---- body append helpers ---------------------------------------------------

template <typename T>
void append_pod(std::vector<std::byte>& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::byte*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

void append_bytes(std::vector<std::byte>& out, const void* data,
                  std::size_t n) {
  const auto* p = static_cast<const std::byte*>(data);
  out.insert(out.end(), p, p + n);
}

/// Reserve header space at the front of `frame`, run `body`, then patch the
/// header in with the final body length. Keeps every encoder single-pass.
template <typename BodyFn>
void encode_frame(std::vector<std::byte>& frame, MessageType type,
                  std::uint64_t seq, BodyFn&& body) {
  frame.clear();
  frame.resize(sizeof(FrameHeader));
  body(frame);
  DFR_CHECK_MSG(frame.size() - sizeof(FrameHeader) <= kMaxFrameBytes,
                "wire: encoded body exceeds kMaxFrameBytes");
  FrameHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kWireVersion;
  header.type = static_cast<std::uint16_t>(type);
  header.seq = seq;
  header.body_bytes = frame.size() - sizeof(FrameHeader);
  std::memcpy(frame.data(), &header, sizeof(header));
}

// ---- bounds-checked body reader -------------------------------------------
//
// Same discipline as the .dfrm v2 reader: every length is validated against
// the bytes actually present BEFORE it is used, element counts are bounded
// in division form so rows*cols can never overflow, and finish() rejects a
// body with trailing bytes (a length-field lie in the other direction).

class Cursor {
 public:
  explicit Cursor(std::span<const std::byte> body) : body_(body) {}

  template <typename T>
  [[nodiscard]] T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T), "fixed field");
    T value;
    std::memcpy(&value, body_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  [[nodiscard]] std::string read_string(std::uint64_t count,
                                        const char* what) {
    need(count, what);
    std::string s(reinterpret_cast<const char*>(body_.data() + pos_),
                  static_cast<std::size_t>(count));
    pos_ += static_cast<std::size_t>(count);
    return s;
  }

  /// Read `count` doubles into `out` (bit-exact memcpy). The count is
  /// bounded by the remaining bytes before any allocation happens. An empty
  /// read copies nothing: `out` (an empty vector's data()) and the body may
  /// then be null, which memcpy does not accept even for zero bytes.
  void read_doubles(std::uint64_t count, double* out, const char* what) {
    DFR_CHECK_MSG(count <= remaining() / sizeof(double), what);
    if (count == 0) return;
    std::memcpy(out, body_.data() + pos_,
                static_cast<std::size_t>(count) * sizeof(double));
    pos_ += static_cast<std::size_t>(count) * sizeof(double);
  }

  [[nodiscard]] std::uint64_t remaining() const noexcept {
    return body_.size() - pos_;
  }

  void finish(const char* what) const {
    DFR_CHECK_MSG(pos_ == body_.size(), what);
  }

 private:
  void need(std::uint64_t n, const char* what) const {
    // Overflow-safe: compares against what is left, never pos_ + n.
    DFR_CHECK_MSG(n <= remaining(), what);
  }

  std::span<const std::byte> body_;
  std::size_t pos_ = 0;
};

[[nodiscard]] std::span<const std::byte> checked_body(
    std::span<const std::byte> frame, MessageType expected) {
  const FrameHeader header = decode_header(frame);
  DFR_CHECK_MSG(header.type == static_cast<std::uint16_t>(expected),
                "wire: frame type does not match the expected message");
  return frame.subspan(sizeof(FrameHeader));
}

// Engine-variant wire encoding: the family byte carries the EngineVariant.
// The kind byte is written as 0. The 1 (scalar) and 2 (simd) that older
// encoders send still decode and are ignored: the serving process's SIMD
// backend picks the kernels.
static_assert(static_cast<int>(EngineVariant::kFloat) == 0 &&
                  static_cast<int>(EngineVariant::kQuantized) == 1,
              "the engine family byte is the EngineVariant value");
constexpr std::uint8_t kMaxEngineFamily = 1;
constexpr std::uint8_t kMaxEngineKind = 2;

[[nodiscard]] EngineVariant decode_engine(std::uint8_t family,
                                          std::uint8_t kind) {
  DFR_CHECK_MSG(family <= kMaxEngineFamily,
                "wire: unknown engine family in request");
  DFR_CHECK_MSG(kind <= kMaxEngineKind, "wire: unknown engine kind in request");
  return static_cast<EngineVariant>(family);
}

// ---- transport helpers -----------------------------------------------------

[[nodiscard]] std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Classify an errno for the WireIoError taxonomy: a peer that died with
/// the frame in flight (reset) is distinguishable from everything else.
[[nodiscard]] WireIoError::Kind errno_kind(int err) noexcept {
  return (err == ECONNRESET || err == EPIPE) ? WireIoError::Kind::kReset
                                             : WireIoError::Kind::kOther;
}

/// Block until `fd` is ready for `events` or the deadline expires. The poll
/// timeout is recomputed after every EINTR, so a signal storm cannot extend
/// the budget; expiry throws the typed timeout. A POLLERR/POLLHUP wake
/// counts as ready — the following recv/send surfaces the real errno.
void wait_io(int fd, short events, Deadline deadline, const char* what) {
  for (;;) {
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, deadline.poll_timeout_ms());
    if (rc > 0) return;
    if (rc == 0 || deadline.expired()) {
      throw WireIoError(std::string(what) + ": deadline expired",
                        WireIoError::Kind::kTimeout);
    }
    if (errno == EINTR) continue;
    throw WireIoError(errno_message(what), errno_kind(errno));
  }
}

/// Read exactly `n` bytes, honoring the deadline. Returns the bytes
/// actually read before EOF (so the caller can tell a clean frame-boundary
/// EOF from a mid-frame one); throws WireIoError on a hard error and the
/// typed kTimeout when the peer stalls — at ANY byte offset — past the
/// deadline. Every recv is MSG_DONTWAIT + poll, so the fd's blocking mode
/// never matters.
[[nodiscard]] std::size_t read_exact(int fd, std::byte* out, std::size_t n,
                                     Deadline deadline) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out + got, n - got, MSG_DONTWAIT);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) return got;  // EOF
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      throw WireIoError(errno_message("wire: recv failed"),
                        errno_kind(errno));
    }
    wait_io(fd, POLLIN, deadline, "wire: recv");
  }
  return got;
}

}  // namespace

int Deadline::poll_timeout_ms() const noexcept {
  if (unlimited()) return -1;
  const std::uint64_t us = remaining_us();
  if (us == 0) return 0;
  const std::uint64_t ms = (us + 999) / 1000;  // round up: never spin at 0
  constexpr std::uint64_t kMax =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  return static_cast<int>(std::min(ms, kMax));
}

const char* wire_status_name(WireStatus status) noexcept {
  switch (status) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kQueueFull: return "queue_full";
    case WireStatus::kUnknownModel: return "unknown_model";
    case WireStatus::kInvalidArgument: return "invalid_argument";
    case WireStatus::kInternalError: return "internal_error";
    case WireStatus::kShutdown: return "shutdown";
    case WireStatus::kDeadlineExceeded: return "deadline_exceeded";
    case WireStatus::kUnavailable: return "unavailable";
    case WireStatus::kTimeout: return "timeout";
    case WireStatus::kBreakerOpen: return "breaker_open";
  }
  return "unknown";
}

// ---- encoders --------------------------------------------------------------

void encode_request(const WireRequest& request, const Matrix& series,
                    std::vector<std::byte>& frame) {
  DFR_CHECK_MSG(request.model_id.size() <= kMaxFrameBytes,
                "wire: model id too long to frame");
  encode_frame(frame, MessageType::kInferRequest, request.seq,
               [&](std::vector<std::byte>& out) {
                 append_pod(out,
                            static_cast<std::uint8_t>(request.options.engine));
                 append_pod(out, std::uint8_t{0});  // kind (see decode_engine)
                 append_pod(out, std::uint16_t{0});  // reserved
                 append_pod(out, request.options.priority);
                 append_pod(out, request.options.deadline_us);
                 append_pod(out,
                            static_cast<std::uint32_t>(request.model_id.size()));
                 append_bytes(out, request.model_id.data(),
                              request.model_id.size());
                 append_pod(out, static_cast<std::uint64_t>(series.rows()));
                 append_pod(out, static_cast<std::uint64_t>(series.cols()));
                 append_bytes(out, series.data(),
                              series.size() * sizeof(double));
               });
}

void encode_response(const WireResponse& response,
                     std::vector<std::byte>& frame) {
  encode_frame(frame, MessageType::kInferResponse, response.seq,
               [&](std::vector<std::byte>& out) {
                 append_pod(out, static_cast<std::int32_t>(response.status));
                 append_pod(out, response.label);
                 append_pod(out, response.latency_us);
                 append_pod(out,
                            static_cast<std::uint32_t>(response.logits.size()));
                 append_bytes(out, response.logits.data(),
                              response.logits.size() * sizeof(double));
               });
}

void encode_health_request(std::uint64_t seq, std::vector<std::byte>& frame) {
  encode_frame(frame, MessageType::kHealthRequest, seq,
               [](std::vector<std::byte>&) {});
}

void encode_health_response(const HealthInfo& info, std::uint64_t seq,
                            std::vector<std::byte>& frame) {
  encode_frame(frame, MessageType::kHealthResponse, seq,
               [&](std::vector<std::byte>& out) {
                 append_pod(out, static_cast<std::uint8_t>(info.accepting));
                 append_pod(out, static_cast<std::uint8_t>(info.draining));
                 // The u16 v1 reserved: queue depth, saturated to the field.
                 append_pod(out, static_cast<std::uint16_t>(std::min<
                                     std::uint32_t>(info.queue_depth, 0xffff)));
                 append_pod(out, info.models);
                 // v2 appended load fields.
                 append_pod(out, info.queue_capacity);
                 append_pod(out, info.ewma_service_us);
               });
}

void encode_drain_request(std::uint64_t seq, std::vector<std::byte>& frame) {
  encode_frame(frame, MessageType::kDrainRequest, seq,
               [](std::vector<std::byte>&) {});
}

void encode_drain_response(std::uint64_t seq, std::vector<std::byte>& frame) {
  encode_frame(frame, MessageType::kDrainResponse, seq,
               [](std::vector<std::byte>&) {});
}

// ---- decoders --------------------------------------------------------------

FrameHeader decode_header(std::span<const std::byte> frame) {
  DFR_CHECK_MSG(frame.size() >= sizeof(FrameHeader),
                "wire: frame shorter than the fixed header");
  FrameHeader header;
  std::memcpy(&header, frame.data(), sizeof(header));
  DFR_CHECK_MSG(std::memcmp(header.magic, kMagic, sizeof(kMagic)) == 0,
                "wire: bad frame magic");
  DFR_CHECK_MSG(header.version >= kWireVersionMin &&
                    header.version <= kWireVersion,
                "wire: unsupported protocol version");
  DFR_CHECK_MSG(header.type >=
                        static_cast<std::uint16_t>(MessageType::kInferRequest) &&
                    header.type <=
                        static_cast<std::uint16_t>(MessageType::kDrainResponse),
                "wire: unknown message type");
  DFR_CHECK_MSG(header.body_bytes <= kMaxFrameBytes,
                "wire: declared body exceeds the frame cap");
  DFR_CHECK_MSG(header.body_bytes == frame.size() - sizeof(FrameHeader),
                "wire: declared body length does not match the frame");
  return header;
}

WireRequest decode_request(std::span<const std::byte> frame) {
  const FrameHeader header = decode_header(frame);
  Cursor cursor(checked_body(frame, MessageType::kInferRequest));

  WireRequest request;
  request.seq = header.seq;
  const auto family = cursor.read<std::uint8_t>();
  const auto kind = cursor.read<std::uint8_t>();
  (void)cursor.read<std::uint16_t>();  // reserved
  request.options.engine = decode_engine(family, kind);
  request.options.priority = cursor.read<std::int32_t>();
  request.options.deadline_us = cursor.read<std::uint64_t>();

  const auto id_len = cursor.read<std::uint32_t>();
  request.model_id =
      cursor.read_string(id_len, "wire: model id runs past the frame");

  const auto rows = cursor.read<std::uint64_t>();
  const auto cols = cursor.read<std::uint64_t>();
  // Division-form product bound (.dfrm style): each dimension must fit the
  // remaining payload on its own, and so must rows*cols — checked without
  // ever computing an overflowing product.
  const std::uint64_t max_doubles = cursor.remaining() / sizeof(double);
  DFR_CHECK_MSG(rows <= max_doubles && cols <= max_doubles,
                "wire: series dimension runs past the frame");
  DFR_CHECK_MSG(rows == 0 || cols <= max_doubles / rows,
                "wire: series element count runs past the frame");
  request.series = Matrix(static_cast<std::size_t>(rows),
                          static_cast<std::size_t>(cols));
  cursor.read_doubles(rows * cols, request.series.data(),
                      "wire: series payload runs past the frame");
  cursor.finish("wire: trailing bytes after request payload");
  return request;
}

WireResponse decode_response(std::span<const std::byte> frame) {
  const FrameHeader header = decode_header(frame);
  Cursor cursor(checked_body(frame, MessageType::kInferResponse));

  WireResponse response;
  response.seq = header.seq;
  const auto status = cursor.read<std::int32_t>();
  // kTimeout / kBreakerOpen are router-local verdicts, never legitimate wire
  // bytes — a peer claiming one is lying and the frame is rejected.
  DFR_CHECK_MSG(status >= 0 &&
                    status <= static_cast<std::int32_t>(WireStatus::kUnavailable),
                "wire: unknown response status");
  response.status = static_cast<WireStatus>(status);
  response.label = cursor.read<std::int32_t>();
  response.latency_us = cursor.read<double>();

  const auto logits_len = cursor.read<std::uint32_t>();
  DFR_CHECK_MSG(logits_len <= cursor.remaining() / sizeof(double),
                "wire: logits run past the frame");
  response.logits.resize(logits_len);
  cursor.read_doubles(logits_len, response.logits.data(),
                      "wire: logits run past the frame");
  cursor.finish("wire: trailing bytes after response payload");
  return response;
}

HealthInfo decode_health_response(std::span<const std::byte> frame) {
  Cursor cursor(checked_body(frame, MessageType::kHealthResponse));
  HealthInfo info;
  info.accepting = cursor.read<std::uint8_t>() != 0;
  info.draining = cursor.read<std::uint8_t>() != 0;
  info.queue_depth = cursor.read<std::uint16_t>();  // v1 wrote 0 (reserved)
  info.models = cursor.read<std::uint32_t>();
  // The v1 body ends here; the v2 extension appends the load fields. The
  // body length discriminates — a v1 peer's 8-byte body keeps them zero.
  if (cursor.remaining() > 0) {
    info.queue_capacity = cursor.read<std::uint32_t>();
    info.ewma_service_us = cursor.read<double>();
  }
  cursor.finish("wire: trailing bytes after health payload");
  return info;
}

// ---- transport -------------------------------------------------------------

std::string Endpoint::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + host_or_path;
  return "tcp:" + host_or_path + ":" + std::to_string(port);
}

Endpoint parse_endpoint(std::string_view spec) {
  Endpoint endpoint;
  if (spec.starts_with("unix:")) {
    endpoint.kind = Endpoint::Kind::kUnix;
    endpoint.host_or_path = std::string(spec.substr(5));
    DFR_CHECK_MSG(!endpoint.host_or_path.empty(),
                  "endpoint: unix socket path is empty");
    DFR_CHECK_MSG(endpoint.host_or_path.size() <
                      sizeof(sockaddr_un{}.sun_path),
                  "endpoint: unix socket path too long");
    return endpoint;
  }
  if (spec.starts_with("tcp:")) {
    const std::string_view rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    DFR_CHECK_MSG(colon != std::string_view::npos && colon > 0 &&
                      colon + 1 < rest.size(),
                  "endpoint: tcp spec must be tcp:host:port");
    endpoint.kind = Endpoint::Kind::kTcp;
    endpoint.host_or_path = std::string(rest.substr(0, colon));
    const std::string_view port_text = rest.substr(colon + 1);
    unsigned port = 0;
    const auto [ptr, ec] = std::from_chars(
        port_text.data(), port_text.data() + port_text.size(), port);
    DFR_CHECK_MSG(ec == std::errc{} &&
                      ptr == port_text.data() + port_text.size() &&
                      port <= 65535,
                  "endpoint: invalid tcp port");
    endpoint.port = static_cast<std::uint16_t>(port);
    return endpoint;
  }
  DFR_CHECK_MSG(false, "endpoint: expected unix:/path or tcp:host:port");
  return endpoint;  // unreachable
}

int listen_endpoint(const Endpoint& endpoint, int backlog) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    DFR_CHECK_MSG(fd >= 0, errno_message("endpoint: socket(AF_UNIX)"));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, endpoint.host_or_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(endpoint.host_or_path.c_str());  // clear a stale socket file
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(fd, backlog) != 0) {
      const std::string msg = errno_message("endpoint: bind/listen (unix)");
      ::close(fd);
      DFR_CHECK_MSG(false, msg);
    }
    return fd;
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  DFR_CHECK_MSG(fd >= 0, errno_message("endpoint: socket(AF_INET)"));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  const std::string& host = endpoint.host_or_path;
  if (host.empty() || host == "0.0.0.0" || host == "*") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (host == "localhost") {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    DFR_CHECK_MSG(false, "endpoint: listen host must be an IPv4 address");
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, backlog) != 0) {
    const std::string msg = errno_message("endpoint: bind/listen (tcp)");
    ::close(fd);
    DFR_CHECK_MSG(false, msg);
  }
  return fd;
}

std::uint16_t bound_port(int listen_fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  DFR_CHECK_MSG(::getsockname(listen_fd,
                              reinterpret_cast<sockaddr*>(&addr), &len) == 0,
                errno_message("endpoint: getsockname"));
  DFR_CHECK_MSG(addr.sin_family == AF_INET,
                "endpoint: bound_port on a non-tcp socket");
  return ntohs(addr.sin_port);
}

namespace {

/// Nonblocking connect bounded by `deadline`: connect, poll POLLOUT until
/// the handshake resolves, read the verdict from SO_ERROR, and hand the fd
/// back in blocking mode (the frame IO above is poll-gated anyway, but
/// pooled fds should not surprise legacy callers). Closes `fd` on failure.
void finish_connect(int fd, const sockaddr* addr, socklen_t len,
                    const std::string& where, Deadline deadline) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    const std::string msg = errno_message((where + ": fcntl").c_str());
    ::close(fd);
    throw WireIoError(msg);
  }
  int rc = ::connect(fd, addr, len);
  if (rc != 0 && errno == EINTR) {
    // An interrupted connect completes asynchronously: poll like EINPROGRESS.
    rc = -1;
    errno = EINPROGRESS;
  }
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      const std::string msg = errno_message(where.c_str());
      const WireIoError::Kind kind = errno_kind(errno);
      ::close(fd);
      throw WireIoError(msg, kind);
    }
    try {
      wait_io(fd, POLLOUT, deadline, where.c_str());
    } catch (...) {
      ::close(fd);
      throw;
    }
    int so_error = 0;
    socklen_t so_len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &so_len) != 0 ||
        so_error != 0) {
      if (so_error != 0) errno = so_error;
      const std::string msg = errno_message(where.c_str());
      const WireIoError::Kind kind = errno_kind(errno);
      ::close(fd);
      throw WireIoError(msg, kind);
    }
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) {
    const std::string msg = errno_message((where + ": fcntl").c_str());
    ::close(fd);
    throw WireIoError(msg);
  }
}

}  // namespace

int connect_endpoint(const Endpoint& endpoint, Deadline deadline) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw WireIoError(errno_message("wire: socket(AF_UNIX)"));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, endpoint.host_or_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    finish_connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr),
                   "wire: connect " + endpoint.to_string(), deadline);
    return fd;
  }

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const std::string port_text = std::to_string(endpoint.port);
  const int rc = ::getaddrinfo(endpoint.host_or_path.c_str(),
                               port_text.c_str(), &hints, &results);
  if (rc != 0) {
    throw WireIoError("wire: resolve " + endpoint.to_string() + ": " +
                      ::gai_strerror(rc));
  }
  int fd = -1;
  std::string last_error = "no addresses";
  WireIoError::Kind last_kind = WireIoError::Kind::kOther;
  for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = errno_message("socket");
      continue;
    }
    try {
      finish_connect(fd, ai->ai_addr, ai->ai_addrlen,
                     "wire: connect " + endpoint.to_string(), deadline);
      break;  // connected (finish_connect closed fd on failure)
    } catch (const WireIoError& e) {
      last_error = e.what();
      last_kind = e.kind();
      fd = -1;
      if (last_kind == WireIoError::Kind::kTimeout) break;  // budget is gone
    }
  }
  ::freeaddrinfo(results);
  if (fd < 0) {
    throw WireIoError("wire: connect " + endpoint.to_string() + ": " +
                      last_error, last_kind);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void write_frame(int fd, std::span<const std::byte> frame, Deadline deadline) {
  std::size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a dead peer raises EPIPE here instead of SIGPIPE.
    const ssize_t w = ::send(fd, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Socket buffer full (a stalled reader): wait writability out against
      // the deadline instead of parking in a blocking send forever.
      wait_io(fd, POLLOUT, deadline, "wire: send");
      continue;
    }
    throw WireIoError(errno_message("wire: send failed"), errno_kind(errno));
  }
}

bool read_frame(int fd, std::vector<std::byte>& frame, Deadline deadline) {
  alignas(FrameHeader) std::byte header_bytes[sizeof(FrameHeader)];
  const std::size_t got =
      read_exact(fd, header_bytes, sizeof(header_bytes), deadline);
  if (got == 0) return false;  // clean EOF at a frame boundary
  if (got < sizeof(header_bytes)) {
    throw WireIoError("wire: peer closed mid-header",
                      WireIoError::Kind::kEof);
  }

  // Validate the header BEFORE sizing the body buffer: a hostile body_bytes
  // never drives an allocation, and the read below consumes exactly the
  // declared body — never a byte past the frame.
  FrameHeader header;
  std::memcpy(&header, header_bytes, sizeof(header));
  DFR_CHECK_MSG(std::memcmp(header.magic, kMagic, sizeof(kMagic)) == 0,
                "wire: bad frame magic");
  DFR_CHECK_MSG(header.version >= kWireVersionMin &&
                    header.version <= kWireVersion,
                "wire: unsupported protocol version");
  DFR_CHECK_MSG(header.body_bytes <= kMaxFrameBytes,
                "wire: declared body exceeds the frame cap");

  frame.resize(sizeof(FrameHeader) + header.body_bytes);
  std::memcpy(frame.data(), header_bytes, sizeof(header_bytes));
  const std::size_t body = read_exact(
      fd, frame.data() + sizeof(FrameHeader), header.body_bytes, deadline);
  if (body < header.body_bytes) {
    throw WireIoError("wire: peer closed mid-body", WireIoError::Kind::kEof);
  }
  return true;
}

}  // namespace dfr::serve::wire
