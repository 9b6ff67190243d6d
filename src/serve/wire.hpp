#pragma once
// Wire protocol for the sharded serving tier: compact length-prefixed binary
// frames over Unix-domain or TCP sockets, connecting the router
// (serve/router.hpp) to shard workers (serve/shard.hpp, the dfr_shard
// binary).
//
// Framing
// -------
// Every message is one frame: a fixed 24-byte header (FrameHeader below —
// magic, protocol version, message type, client-assigned correlation seq,
// body byte count) followed by `body_bytes` of message-specific payload.
// All integers are little-endian; doubles cross the wire as their host
// IEEE-754 bit pattern (memcpy), so a series round-trips BIT-identically —
// including NaN payloads, signed zeros, infinities, and denormals — and a
// request served through a socket produces the same logits bits as the same
// request served in-process.
//
// Message bodies (after the header):
//   kInferRequest   u8 engine_family (EngineVariant: 0 float / 1 quantized)
//                   u8 engine_kind   (written 0; 1 and 2 from older
//                                     encoders decode and are ignored)
//                   u16 reserved (zero)
//                   i32 priority | u64 deadline_us        (RequestOptions)
//                   u32 model_id_len | model_id bytes
//                   u64 rows | u64 cols | rows*cols f64   (the series)
//   kInferResponse  i32 status (WireStatus) | i32 label | f64 latency_us
//                   u32 logits_len | logits_len f64
//   kHealthRequest  (empty)
//   kHealthResponse u8 accepting | u8 draining | u16 queue_depth | u32 models
//                   u32 queue_capacity | f64 ewma_service_us   (v2 extension)
//   kDrainRequest   (empty)
//   kDrainResponse  (empty; sent AFTER the shard finished draining)
//
// Versioning: v2 is a body-compatible minor extension of v1 — it reuses the
// u16 the v1 health body reserved (now the shard queue depth) and APPENDS
// the queue-capacity/EWMA fields; no other message changed. Decoders accept
// any version in [kWireVersionMin, kWireVersion] and discriminate the health
// body by its length (a v1 8-byte body decodes with zeroed load fields), so
// a v2 router drives a v1 shard and vice versa.
//
// Robustness
// ----------
// Decoding never trusts a length field: every read is bounds-checked against
// the bytes actually present, products like rows*cols are bounded in
// division form before any multiplication (the same overflow-safe style as
// the .dfrm v2 reader in serve/artifact_store.cpp), a declared body larger
// than kMaxFrameBytes is rejected before a single payload byte is read or
// allocated, and a frame whose body does not END exactly where its last
// field does (trailing garbage) is rejected too. Malformed frames throw
// typed CheckError; transport failures (peer died mid-frame, connection
// refused/reset) throw WireIoError — the distinction is what lets the
// router retry a replica on an I/O failure while never retrying a request
// the shard actually rejected.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "serve/server.hpp"

namespace dfr::serve::wire {

inline constexpr char kMagic[4] = {'D', 'F', 'R', 'W'};
/// Current protocol version (written into every encoded frame).
inline constexpr std::uint16_t kWireVersion = 2;
/// Oldest version still decoded (v1 health bodies lack the load fields).
inline constexpr std::uint16_t kWireVersionMin = 1;
/// Hard cap on one frame's body; a declared length beyond it is rejected
/// before any allocation (64 MiB comfortably fits every real series).
inline constexpr std::uint64_t kMaxFrameBytes = 64ull << 20;

enum class MessageType : std::uint16_t {
  kInferRequest = 1,
  kInferResponse = 2,
  kHealthRequest = 3,
  kHealthResponse = 4,
  kDrainRequest = 5,
  kDrainResponse = 6,
};

/// Fixed frame header. Explicit layout pinned by the static_asserts — the
/// struct bytes ARE the wire bytes (little-endian hosts only, like .dfrm).
struct FrameHeader {
  char magic[4];            // "DFRW"
  std::uint16_t version;    // kWireVersion
  std::uint16_t type;       // MessageType
  std::uint64_t seq;        // client-assigned; echoed in the response
  std::uint64_t body_bytes; // payload bytes following this header
};

static_assert(sizeof(FrameHeader) == 24,
              "FrameHeader layout is part of the wire format");
static_assert(alignof(FrameHeader) == 8,
              "FrameHeader must be plain 8-byte-aligned POD");

/// Typed response status: values 0..6 mirror RequestStatus one-to-one (the
/// shard maps its server's status straight through). Values from
/// kUnavailable up are ROUTER-generated and never encoded by a shard;
/// kTimeout and kBreakerOpen additionally never cross the wire at all
/// (decode_response rejects them — they exist so callers can tell "the
/// deadline budget ran out" and "every breaker was open, nothing was even
/// dialed" apart from "every replica was dialed and failed").
enum class WireStatus : std::int32_t {
  kOk = 0,
  kQueueFull,
  kUnknownModel,
  kInvalidArgument,
  kInternalError,
  kShutdown,
  kDeadlineExceeded,
  kUnavailable,   // router: every replica attempt failed
  kTimeout,       // router: per-request deadline budget exhausted
  kBreakerOpen,   // router: all replicas' circuit breakers open — no dial
};

static_assert(static_cast<int>(WireStatus::kDeadlineExceeded) ==
                  static_cast<int>(RequestStatus::kDeadlineExceeded),
              "WireStatus must mirror RequestStatus");

[[nodiscard]] const char* wire_status_name(WireStatus status) noexcept;

[[nodiscard]] constexpr WireStatus to_wire_status(RequestStatus s) noexcept {
  return static_cast<WireStatus>(static_cast<std::int32_t>(s));
}

/// One inference request as it crosses the wire. `series` is owned on the
/// decode side (the shard needs storage that outlives the frame buffer);
/// encoding reads the caller's matrix without copying it first.
struct WireRequest {
  std::uint64_t seq = 0;
  std::string model_id;
  RequestOptions options;
  Matrix series;
};

struct WireResponse {
  std::uint64_t seq = 0;
  WireStatus status = WireStatus::kOk;
  std::int32_t label = -1;
  double latency_us = 0.0;  // shard-side submit -> completion
  Vector logits;
};

/// Shard health snapshot (kHealthResponse body). The load fields (queue
/// depth, capacity, EWMA service time) are the v2 extension the router's
/// load-aware replica choice feeds on; a v1 shard reports them as zero.
struct HealthInfo {
  bool accepting = false;  // admitting new inference requests
  bool draining = false;   // drain begun (or completed)
  std::uint32_t models = 0;  // registered model count (readiness signal)
  /// Requests pending/executing/unharvested in the shard's bounded queue at
  /// probe time (the instantaneous load signal; saturates at 65535 on the
  /// wire).
  std::uint32_t queue_depth = 0;
  std::uint32_t queue_capacity = 0;  // the shard's bounded-queue size
  /// EWMA of the shard's recent per-request service times, µs (0 until the
  /// first completion trains it).
  double ewma_service_us = 0.0;
};

// ---- encoding (frame = header + body, appended into a reusable buffer) ----

void encode_request(const WireRequest& request, const Matrix& series,
                    std::vector<std::byte>& frame);
inline void encode_request(const WireRequest& request,
                           std::vector<std::byte>& frame) {
  encode_request(request, request.series, frame);
}
void encode_response(const WireResponse& response,
                     std::vector<std::byte>& frame);
void encode_health_request(std::uint64_t seq, std::vector<std::byte>& frame);
void encode_health_response(const HealthInfo& info, std::uint64_t seq,
                            std::vector<std::byte>& frame);
void encode_drain_request(std::uint64_t seq, std::vector<std::byte>& frame);
void encode_drain_response(std::uint64_t seq, std::vector<std::byte>& frame);

// ---- decoding (typed CheckError on any malformed input) --------------------

/// Validate and return the header of a complete frame: magic, version, a
/// known type, body cap, and body_bytes == frame.size() - sizeof(header).
[[nodiscard]] FrameHeader decode_header(std::span<const std::byte> frame);

[[nodiscard]] WireRequest decode_request(std::span<const std::byte> frame);
[[nodiscard]] WireResponse decode_response(std::span<const std::byte> frame);
[[nodiscard]] HealthInfo decode_health_response(
    std::span<const std::byte> frame);

// ---- transport -------------------------------------------------------------

/// Absolute completion budget for one transport operation. All deadline IO
/// below is poll-gated: every recv/send/connect waits readiness only up to
/// the deadline and throws a typed WireIoError{kTimeout} on expiry, so a
/// peer that accepts and then stalls mid-frame can never park a caller
/// forever. Default-constructed = no deadline (block indefinitely).
struct Deadline {
  std::chrono::steady_clock::time_point at =
      std::chrono::steady_clock::time_point::max();

  [[nodiscard]] static Deadline never() noexcept { return {}; }
  [[nodiscard]] static Deadline after_us(std::uint64_t us) noexcept {
    return Deadline{std::chrono::steady_clock::now() +
                    std::chrono::microseconds(us)};
  }

  [[nodiscard]] bool unlimited() const noexcept {
    return at == std::chrono::steady_clock::time_point::max();
  }
  [[nodiscard]] bool expired() const noexcept {
    return !unlimited() && std::chrono::steady_clock::now() >= at;
  }
  /// Budget left, µs (0 when expired; huge when unlimited).
  [[nodiscard]] std::uint64_t remaining_us() const noexcept {
    if (unlimited()) return ~std::uint64_t{0};
    const auto left = at - std::chrono::steady_clock::now();
    if (left <= std::chrono::steady_clock::duration::zero()) return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(left).count());
  }
  /// poll() timeout for the remaining budget: -1 when unlimited, otherwise
  /// clamped to [1, INT_MAX] ms — rounding UP so a sub-millisecond budget
  /// still polls once instead of spinning at timeout 0.
  [[nodiscard]] int poll_timeout_ms() const noexcept;
};

/// Transport-layer failure: connect refused, peer reset, EOF mid-frame, or
/// a deadline expiring mid-operation. Distinct from CheckError (malformed
/// data) so callers can retry replicas on I/O failures without ever
/// retrying a request a shard rejected. The Kind tells a wedged peer
/// (kTimeout — the shard is up but silent) apart from a vanished one
/// (kEof/kReset) for error-taxonomy accounting; the retry decision treats
/// them identically (nothing authoritative came back).
class WireIoError : public std::runtime_error {
 public:
  enum class Kind {
    kOther,    // connect/resolve failure, unclassified errno
    kEof,      // peer closed mid-frame
    kReset,    // ECONNRESET / EPIPE: peer died with the frame in flight
    kTimeout,  // deadline expired before the operation completed
  };

  explicit WireIoError(const std::string& what, Kind kind = Kind::kOther)
      : std::runtime_error(what), kind_(kind) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// A shard address: "unix:/path/to.sock" or "tcp:host:port".
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string host_or_path;  // socket path (unix) or host (tcp)
  std::uint16_t port = 0;    // tcp only; 0 lets the kernel pick (listen)
  [[nodiscard]] std::string to_string() const;
};

/// Parse "unix:/path" / "tcp:host:port"; throws CheckError on anything else.
[[nodiscard]] Endpoint parse_endpoint(std::string_view spec);

/// Bind + listen. Unix endpoints unlink a stale socket file first. Returns
/// the listening fd; throws CheckError on failure.
[[nodiscard]] int listen_endpoint(const Endpoint& endpoint, int backlog = 64);

/// The port a tcp listening fd actually bound (resolves port 0).
[[nodiscard]] std::uint16_t bound_port(int listen_fd);

/// Connect to a shard, completing within `deadline` (nonblocking connect +
/// poll + SO_ERROR; the fd is returned in blocking mode). Throws
/// WireIoError on failure (a dead shard is a retryable transport
/// condition, not a protocol error) — WireIoError{kTimeout} when the
/// deadline expires first.
[[nodiscard]] int connect_endpoint(const Endpoint& endpoint,
                                   Deadline deadline);
[[nodiscard]] inline int connect_endpoint(const Endpoint& endpoint) {
  return connect_endpoint(endpoint, Deadline::never());
}

/// Write one complete frame within `deadline`, handling partial writes and
/// EINTR (every send is poll-gated MSG_DONTWAIT, so the fd's blocking mode
/// is irrelevant). Throws WireIoError when the peer is gone (SIGPIPE
/// suppressed via MSG_NOSIGNAL) or WireIoError{kTimeout} on expiry.
void write_frame(int fd, std::span<const std::byte> frame, Deadline deadline);
inline void write_frame(int fd, std::span<const std::byte> frame) {
  write_frame(fd, frame, Deadline::never());
}

/// Read one complete frame into `frame` within `deadline` (header validated
/// before the body is sized or read, so a hostile length never
/// over-allocates and the body is never over-read). Returns false on clean
/// EOF at a frame boundary; throws WireIoError on EOF/error mid-frame,
/// WireIoError{kTimeout} when the peer stalls at ANY byte offset past the
/// deadline, and CheckError on a malformed header.
[[nodiscard]] bool read_frame(int fd, std::vector<std::byte>& frame,
                              Deadline deadline);
[[nodiscard]] inline bool read_frame(int fd, std::vector<std::byte>& frame) {
  return read_frame(fd, frame, Deadline::never());
}

}  // namespace dfr::serve::wire
