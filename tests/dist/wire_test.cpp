// The framing protocol's contract: frames round-trip byte-exactly
// through encode_frame/FrameDecoder under any feed chunking, and every
// way a stream can lie about itself -- bad magic, wrong version, unknown
// type, oversized length, mid-frame truncation, plain garbage (a worker
// printf-ing to stdout) -- is detected as Corrupt, stickily, instead of
// being resynced past or crashing the decoder.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/wire.hpp"

namespace deproto::dist {
namespace {

Frame job_frame(const std::string& payload) {
  Frame frame;
  frame.type = FrameType::Job;
  frame.payload = payload;
  return frame;
}

/// Overwrite the little-endian u32 at `offset` in encoded frame bytes.
void patch_u32(std::string* bytes, std::size_t offset, std::uint32_t value) {
  ASSERT_GE(bytes->size(), offset + 4);
  (*bytes)[offset + 0] = static_cast<char>(value & 0xff);
  (*bytes)[offset + 1] = static_cast<char>((value >> 8) & 0xff);
  (*bytes)[offset + 2] = static_cast<char>((value >> 16) & 0xff);
  (*bytes)[offset + 3] = static_cast<char>((value >> 24) & 0xff);
}

TEST(WireTest, EncodeLaysOutHeaderLittleEndian) {
  const std::string bytes = encode_frame(job_frame("abc"));
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + 3);
  EXPECT_EQ(bytes.substr(0, 4), "DPWF");
  // version = 1, type = Job (2), length = 3, all little-endian u32.
  const unsigned char* b =
      reinterpret_cast<const unsigned char*>(bytes.data());
  EXPECT_EQ(b[4] | (b[5] << 8) | (b[6] << 16) | (b[7] << 24), kWireVersion);
  EXPECT_EQ(b[8], 2);
  EXPECT_EQ(b[12], 3);
  EXPECT_EQ(bytes.substr(kFrameHeaderSize), "abc");
}

TEST(WireTest, RoundTripsFramesUnderAnyChunking) {
  std::vector<Frame> frames;
  frames.push_back(Frame{FrameType::Hello, R"({"pid":42})"});
  frames.push_back(job_frame(std::string(100 * 1024, 'x')));  // multi-chunk
  frames.push_back(Frame{FrameType::Heartbeat, R"({"job":-1})"});
  frames.push_back(Frame{FrameType::Shutdown, ""});  // empty payload

  std::string stream;
  for (const Frame& frame : frames) stream += encode_frame(frame);

  // Feed the whole stream in chunk sizes 1 (worst case), 7, and all-at-
  // once; the decoded sequence must be identical each time.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  stream.size()}) {
    FrameDecoder decoder;
    std::vector<Frame> decoded;
    for (std::size_t i = 0; i < stream.size(); i += chunk) {
      decoder.feed(stream.data() + i, std::min(chunk, stream.size() - i));
      Frame frame;
      while (decoder.next(&frame) == FrameDecoder::Status::Frame) {
        decoded.push_back(frame);
      }
    }
    EXPECT_EQ(decoded, frames) << "chunk=" << chunk;
    EXPECT_FALSE(decoder.corrupt());
    EXPECT_EQ(decoder.buffered(), 0U);
  }
}

TEST(WireTest, TruncatedFrameIsNeedMoreNotCorrupt) {
  const std::string bytes = encode_frame(job_frame("payload"));
  FrameDecoder decoder;
  Frame frame;
  // Every strict prefix of a valid frame is NeedMore: truncation means
  // "keep reading", and only ever escalates when bytes contradict the
  // framing, not when they are merely incomplete.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    FrameDecoder fresh;
    fresh.feed(bytes.data(), len);
    EXPECT_EQ(fresh.next(&frame), FrameDecoder::Status::NeedMore) << len;
    EXPECT_FALSE(fresh.corrupt()) << len;
  }
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_EQ(decoder.next(&frame), FrameDecoder::Status::Frame);
}

TEST(WireTest, BadMagicIsCorrupt) {
  std::string bytes = encode_frame(job_frame("{}"));
  bytes[0] = 'X';
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  std::string error;
  EXPECT_EQ(decoder.next(&frame, &error), FrameDecoder::Status::Corrupt);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(WireTest, StdoutNoiseIsCorrupt) {
  // The realistic corruption: a worker (or a library it links) printf-ed
  // to stdout, so the dispatcher reads text where a header should be.
  const std::string noise = "warning: something happened\n";
  FrameDecoder decoder;
  decoder.feed(noise.data(), noise.size());
  Frame frame;
  EXPECT_EQ(decoder.next(&frame), FrameDecoder::Status::Corrupt);
}

TEST(WireTest, WrongVersionIsCorrupt) {
  std::string bytes = encode_frame(job_frame("{}"));
  patch_u32(&bytes, 4, kWireVersion + 1);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  std::string error;
  EXPECT_EQ(decoder.next(&frame, &error), FrameDecoder::Status::Corrupt);
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(WireTest, UnknownTypeIsCorrupt) {
  EXPECT_TRUE(frame_type_known(1));
  EXPECT_TRUE(frame_type_known(5));
  EXPECT_FALSE(frame_type_known(0));
  EXPECT_FALSE(frame_type_known(6));

  std::string bytes = encode_frame(job_frame("{}"));
  patch_u32(&bytes, 8, 99);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  std::string error;
  EXPECT_EQ(decoder.next(&frame, &error), FrameDecoder::Status::Corrupt);
  EXPECT_NE(error.find("type"), std::string::npos) << error;
}

TEST(WireTest, OversizedLengthIsCorruptNotAnAllocation) {
  // A length field above kMaxFramePayload must be rejected from the
  // header alone -- the decoder never tries to buffer 4 GiB first.
  std::string bytes = encode_frame(job_frame("{}"));
  patch_u32(&bytes, 12, 0xffffffffu);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  std::string error;
  EXPECT_EQ(decoder.next(&frame, &error), FrameDecoder::Status::Corrupt);
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
}

TEST(WireTest, CorruptionIsStickyEvenAcrossValidBytes) {
  // Once framing is lost there is no resync: a valid frame fed after the
  // violation must NOT be handed out, because nothing guarantees the
  // stream positions align with frame boundaries anymore.
  std::string bad = encode_frame(job_frame("{}"));
  bad[1] = '?';
  FrameDecoder decoder;
  decoder.feed(bad.data(), bad.size());
  Frame frame;
  EXPECT_EQ(decoder.next(&frame), FrameDecoder::Status::Corrupt);

  const std::string good = encode_frame(job_frame("{}"));
  decoder.feed(good.data(), good.size());
  EXPECT_EQ(decoder.next(&frame), FrameDecoder::Status::Corrupt);
  EXPECT_TRUE(decoder.corrupt());
}

TEST(WireTest, EncodeRejectsOversizedPayloads) {
  Frame frame;
  frame.type = FrameType::Result;
  frame.payload.resize(static_cast<std::size_t>(kMaxFramePayload) + 1);
  EXPECT_THROW((void)encode_frame(frame), std::length_error);
}

TEST(WireTest, FrameTypeNamesAreStable) {
  EXPECT_STREQ(frame_type_name(FrameType::Hello), "hello");
  EXPECT_STREQ(frame_type_name(FrameType::Job), "job");
  EXPECT_STREQ(frame_type_name(FrameType::Result), "result");
  EXPECT_STREQ(frame_type_name(FrameType::Heartbeat), "heartbeat");
  EXPECT_STREQ(frame_type_name(FrameType::Shutdown), "shutdown");
}

TEST(WireTest, FrameTypeKnownCoversExactlyTheDefinedTypes) {
  EXPECT_FALSE(frame_type_known(0));
  for (std::uint32_t t = 1; t <= 5; ++t) {
    EXPECT_TRUE(frame_type_known(t)) << t;
  }
  EXPECT_FALSE(frame_type_known(6));
  EXPECT_FALSE(frame_type_known(0xffffffffu));
}

TEST(WireTest, CorruptErrorRepeatsTheFirstViolation) {
  // Later polls keep reporting the original diagnosis, not a vaguer one.
  std::string bytes = encode_frame(job_frame("{}"));
  patch_u32(&bytes, 4, 7);  // version
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  std::string first;
  EXPECT_EQ(decoder.next(&frame, &first), FrameDecoder::Status::Corrupt);
  EXPECT_NE(first.find("version 7"), std::string::npos) << first;
  std::string second;
  EXPECT_EQ(decoder.next(&frame, &second), FrameDecoder::Status::Corrupt);
  EXPECT_EQ(second, first);
}

TEST(WireTest, BufferedCountsOnlyUnconsumedBytesAcrossManyFrames) {
  // Well over the decoder's 64 KiB compaction threshold, fed in one go
  // and then in pieces: buffered() always equals the bytes not yet handed
  // out, and every frame comes back intact and in order.
  std::string stream;
  constexpr std::size_t kFrames = 300;
  auto payload = [](std::size_t i) {
    return std::string(500, static_cast<char>('a' + i % 26));
  };
  for (std::size_t i = 0; i < kFrames; ++i) {
    stream += encode_frame(job_frame(payload(i)));
  }
  const std::size_t frame_bytes = stream.size() / kFrames;
  FrameDecoder decoder;
  std::size_t fed = 0;
  std::size_t got = 0;
  while (fed < stream.size()) {
    const std::size_t chunk = std::min<std::size_t>(9000, stream.size() - fed);
    decoder.feed(stream.data() + fed, chunk);
    fed += chunk;
    Frame frame;
    while (decoder.next(&frame) == FrameDecoder::Status::Frame) {
      EXPECT_EQ(frame.payload, payload(got));
      ++got;
    }
    EXPECT_EQ(decoder.buffered(), fed - got * frame_bytes);
  }
  EXPECT_EQ(got, kFrames);
  EXPECT_EQ(decoder.buffered(), 0U);
  EXPECT_FALSE(decoder.corrupt());
}

}  // namespace
}  // namespace deproto::dist
