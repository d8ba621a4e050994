#include "dist/wire.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

namespace deproto::dist {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint32_t get_u32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

}  // namespace

bool frame_type_known(std::uint32_t value) {
  return value >= static_cast<std::uint32_t>(FrameType::Hello) &&
         value <= static_cast<std::uint32_t>(FrameType::Shutdown);
}

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::Hello:
      return "hello";
    case FrameType::Job:
      return "job";
    case FrameType::Result:
      return "result";
    case FrameType::Heartbeat:
      return "heartbeat";
    case FrameType::Shutdown:
      return "shutdown";
  }
  return "unknown";
}

std::string encode_frame(const Frame& frame) {
  if (frame.payload.size() > kMaxFramePayload) {
    throw std::length_error("dist::encode_frame: payload of " +
                            std::to_string(frame.payload.size()) +
                            " bytes exceeds kMaxFramePayload");
  }
  std::string out;
  out.reserve(kFrameHeaderSize + frame.payload.size());
  out.append(kWireMagic, sizeof(kWireMagic));
  put_u32(out, kWireVersion);
  put_u32(out, static_cast<std::uint32_t>(frame.type));
  put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  out += frame.payload;
  return out;
}

void FrameDecoder::feed(const char* data, std::size_t n) {
  if (corrupt_ || n == 0) return;
  // Drop the already-consumed prefix before it grows unbounded.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ >= 64 * 1024) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, n);
}

FrameDecoder::Status FrameDecoder::fail(std::string why, std::string* error) {
  if (!corrupt_) {
    corrupt_ = true;
    corrupt_why_ = std::move(why);
  }
  if (error != nullptr) *error = corrupt_why_;
  return Status::Corrupt;
}

FrameDecoder::Status FrameDecoder::next(Frame* out, std::string* error) {
  if (corrupt_) return fail("", error);
  if (buffered() < kFrameHeaderSize) return Status::NeedMore;
  const char* header = buffer_.data() + consumed_;
  if (std::memcmp(header, kWireMagic, sizeof(kWireMagic)) != 0) {
    return fail("bad frame magic", error);
  }
  const std::uint32_t version = get_u32(header + 4);
  if (version != kWireVersion) {
    return fail("unsupported wire version " + std::to_string(version), error);
  }
  const std::uint32_t type = get_u32(header + 8);
  if (!frame_type_known(type)) {
    return fail("unknown frame type " + std::to_string(type), error);
  }
  const std::uint32_t length = get_u32(header + 12);
  if (length > kMaxFramePayload) {
    return fail("frame payload of " + std::to_string(length) +
                    " bytes exceeds kMaxFramePayload",
                error);
  }
  if (buffered() < kFrameHeaderSize + length) return Status::NeedMore;
  out->type = static_cast<FrameType>(type);
  out->payload.assign(header + kFrameHeaderSize, length);
  consumed_ += kFrameHeaderSize + length;
  return Status::Frame;
}

}  // namespace deproto::dist
