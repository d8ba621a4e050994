#pragma once

// A framing protocol for shipping sweep jobs between processes:
// length-prefixed, versioned frames carrying JSON payloads between a
// dispatcher and its workers (spec JSON down; result JSON, heartbeats, and
// hello/handshake up). No sweep executor in the library uses it -- sweeps
// run on the in-process SuiteRunner pool -- but deproto-bench times this
// codec (its dist.frame_* spans).
//
// A frame is a fixed 16-byte header -- 4 magic bytes ("DPWF"), a
// little-endian u32 protocol version, frame type, and payload length --
// followed by the payload bytes. The decoder is incremental (feed bytes
// as they arrive, poll for complete frames) and fails closed: a bad
// magic, unknown version or type, or an oversized length marks the whole
// stream corrupt -- framing is lost, there is no resync -- so a reader
// drops that peer instead of guessing at byte boundaries.

#include <cstddef>
#include <cstdint>
#include <string>

namespace deproto::dist {

/// First 4 bytes of every frame, in order: 'D' 'P' 'W' 'F'.
inline constexpr char kWireMagic[4] = {'D', 'P', 'W', 'F'};

/// Bumped on any incompatible change to the header layout, frame types,
/// or payload conventions. A dispatcher never interprets frames from a
/// worker speaking another version; the mismatch surfaces as a corrupt
/// stream on the first header.
inline constexpr std::uint32_t kWireVersion = 1;

/// Upper bound on one payload. Result documents scale with the recorded
/// series (a 10^6-period job dumps tens of megabytes), so the bound is
/// generous; anything above it is a framing error, not a workload.
inline constexpr std::uint32_t kMaxFramePayload = 256u * 1024u * 1024u;

/// Fixed header size: magic + version + type + length.
inline constexpr std::size_t kFrameHeaderSize = 16;

enum class FrameType : std::uint32_t {
  /// Worker -> dispatcher, once after startup: {"pid": <pid>}. Receipt
  /// marks the worker ready for its first job.
  Hello = 1,
  /// Dispatcher -> worker: {"job": <index>, "spec": <ScenarioSpec JSON>}.
  Job = 2,
  /// Worker -> dispatcher, one per executed job. The payload is a compact
  /// header JSON line, '\n', then the raw ExperimentResult::to_json(false)
  /// dump (absent after a failed job). The two-part
  /// layout lets the dispatcher splice the (potentially huge) result text
  /// into its JSONL sink without parsing it into a tree.
  Result = 3,
  /// Worker -> dispatcher, every heartbeat interval: {"job": <index>} for
  /// the job being executed, or {"job": -1} when idle. Any frame refreshes
  /// the dispatcher's liveness clock; heartbeats exist so a worker stuck
  /// inside one long job still refreshes it.
  Heartbeat = 4,
  /// Dispatcher -> worker: drain and exit cleanly. No payload.
  Shutdown = 5,
};

/// True for the FrameType values this version defines; the decoder
/// rejects everything else.
[[nodiscard]] bool frame_type_known(std::uint32_t value);
[[nodiscard]] const char* frame_type_name(FrameType type);

struct Frame {
  FrameType type = FrameType::Hello;
  std::string payload;

  friend bool operator==(const Frame&, const Frame&) = default;
};

/// Header + payload as wire bytes. Throws std::length_error when the
/// payload exceeds kMaxFramePayload (the sender's bug, not the peer's).
[[nodiscard]] std::string encode_frame(const Frame& frame);

/// Incremental frame parser over an untrusted byte stream. feed() bytes
/// as they arrive; next() yields complete frames. Corruption is sticky:
/// once the stream violates the framing invariants every further next()
/// reports Corrupt, because a length-prefixed stream that lied once has
/// no trustworthy byte boundaries left.
class FrameDecoder {
 public:
  enum class Status {
    Frame,     ///< *out was filled with the next complete frame
    NeedMore,  ///< no complete frame buffered; feed() more bytes
    Corrupt,   ///< framing invariant violated; stream is unusable
  };

  void feed(const char* data, std::size_t n);

  /// Extract the next complete frame. On Corrupt, `error` (when non-null)
  /// gets a one-line diagnosis of the first violation.
  Status next(Frame* out, std::string* error = nullptr);

  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size() - consumed_;
  }
  [[nodiscard]] bool corrupt() const noexcept { return corrupt_; }

 private:
  [[nodiscard]] Status fail(std::string why, std::string* error);

  std::string buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already handed out
  bool corrupt_ = false;
  std::string corrupt_why_;
};

}  // namespace deproto::dist
