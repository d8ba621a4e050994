// The framing protocol's contract: frames round-trip byte-exactly
// through encode_frame/FrameDecoder under any feed chunking, and every
// way a stream can lie about itself -- bad magic, wrong version, unknown
// type, oversized length, mid-frame truncation, plain garbage (a worker
// printf-ing to stdout) -- is detected as Corrupt, stickily, instead of
// being resynced past or crashing the decoder. FdTransport carries whole
// frames over a real pipe: concurrent senders never interleave, a full
// non-blocking pipe is waited out, and a closed peer is reported, not
// retried.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
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

/// A pipe whose ends the test closes explicitly (or on scope exit).
struct Pipe {
  int read_fd = -1;
  int write_fd = -1;

  Pipe() {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    read_fd = fds[0];
    write_fd = fds[1];
  }
  ~Pipe() {
    close_read();
    close_write();
  }
  void close_read() {
    if (read_fd >= 0) ::close(read_fd);
    read_fd = -1;
  }
  void close_write() {
    if (write_fd >= 0) ::close(write_fd);
    write_fd = -1;
  }
};

/// Every frame readable from `transport` until end-of-stream; stops early
/// (and fails the test) on a corrupt stream.
std::vector<Frame> drain(Transport& transport) {
  FrameDecoder decoder;
  std::vector<Frame> frames;
  char buf[4096];
  while (true) {
    Frame frame;
    const FrameDecoder::Status status = decoder.next(&frame);
    if (status == FrameDecoder::Status::Frame) {
      frames.push_back(std::move(frame));
      continue;
    }
    if (status == FrameDecoder::Status::Corrupt) {
      ADD_FAILURE() << "corrupt stream after " << frames.size() << " frames";
      return frames;
    }
    const long n = transport.read_some(buf, sizeof(buf));
    if (n <= 0) {
      EXPECT_EQ(decoder.buffered(), 0U) << "stream ended mid-frame";
      return frames;
    }
    decoder.feed(buf, static_cast<std::size_t>(n));
  }
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

TEST(WireTest, FdTransportRoundTripsFramesOverAPipe) {
  Pipe pipe;
  FdTransport writer(-1, pipe.write_fd);
  FdTransport reader(pipe.read_fd, -1);
  EXPECT_EQ(reader.poll_fd(), pipe.read_fd);

  const std::vector<Frame> sent = {
      Frame{FrameType::Hello, R"({"pid":1})"},
      job_frame(R"({"job":0,"spec":{}})"),
      Frame{FrameType::Shutdown, ""},
  };
  for (const Frame& frame : sent) ASSERT_TRUE(writer.send(frame));
  pipe.close_write();  // end-of-stream for the reader
  EXPECT_EQ(drain(reader), sent);
}

TEST(WireTest, FdTransportReadSomeReturnsZeroAtEndOfStream) {
  Pipe pipe;
  FdTransport reader(pipe.read_fd, -1);
  ASSERT_EQ(::write(pipe.write_fd, "xy", 2), 2);
  pipe.close_write();
  char buf[8];
  EXPECT_EQ(reader.read_some(buf, sizeof(buf)), 2);
  EXPECT_EQ(reader.read_some(buf, sizeof(buf)), 0);
}

TEST(WireTest, FdTransportSendReportsAClosedPeer) {
  // A write to a pipe with no reader fails with EPIPE (SIGPIPE ignored for
  // the duration, as a process that talks to peers must): send() says the
  // peer is gone instead of retrying or tearing the process down.
  struct sigaction ignore {};
  struct sigaction saved {};
  ignore.sa_handler = SIG_IGN;
  ASSERT_EQ(::sigaction(SIGPIPE, &ignore, &saved), 0);
  {
    Pipe pipe;
    pipe.close_read();
    FdTransport writer(-1, pipe.write_fd);
    EXPECT_FALSE(writer.send(job_frame("{}")));
  }
  ASSERT_EQ(::sigaction(SIGPIPE, &saved, nullptr), 0);
}

TEST(WireTest, FdTransportWaitsOutAFullNonBlockingPipe) {
  // A payload several times the pipe buffer on a non-blocking write end:
  // send() polls through EAGAIN instead of tearing the frame in half.
  Pipe pipe;
  const int flags = ::fcntl(pipe.write_fd, F_GETFL);
  ASSERT_EQ(::fcntl(pipe.write_fd, F_SETFL, flags | O_NONBLOCK), 0);
  const Frame big = job_frame(std::string(1024 * 1024, 'z'));
  FdTransport writer(-1, pipe.write_fd);
  FdTransport reader(pipe.read_fd, -1);

  std::vector<Frame> received;
  std::thread consumer([&] { received = drain(reader); });
  EXPECT_TRUE(writer.send(big));
  pipe.close_write();
  consumer.join();
  ASSERT_EQ(received.size(), 1U);
  EXPECT_EQ(received[0], big);
}

TEST(WireTest, ConcurrentSendersNeverInterleaveFrames) {
  // Frames larger than PIPE_BUF are not written atomically by the kernel;
  // send()'s lock is what keeps two threads' bytes from interleaving.
  Pipe pipe;
  FdTransport shared(-1, pipe.write_fd);
  FdTransport reader(pipe.read_fd, -1);
  std::vector<Frame> received;
  std::thread consumer([&] { received = drain(reader); });

  constexpr std::size_t kPerSender = 20;
  auto sender = [&shared](char fill) {
    for (std::size_t i = 0; i < kPerSender; ++i) {
      EXPECT_TRUE(shared.send(job_frame(std::string(16 * 1024, fill))));
    }
  };
  std::thread a(sender, 'a');
  std::thread b(sender, 'b');
  a.join();
  b.join();
  pipe.close_write();
  consumer.join();

  ASSERT_EQ(received.size(), 2 * kPerSender);
  std::size_t as = 0;
  for (const Frame& frame : received) {
    ASSERT_EQ(frame.payload.size(), 16U * 1024);
    const char fill = frame.payload[0];
    EXPECT_EQ(frame.payload, std::string(frame.payload.size(), fill));
    if (fill == 'a') ++as;
  }
  EXPECT_EQ(as, kPerSender);
}

TEST(WireTest, FdTransportClosesItsFdsOnlyWhenItOwnsThem) {
  Pipe borrowed;
  { FdTransport transport(borrowed.read_fd, borrowed.write_fd); }
  EXPECT_NE(::fcntl(borrowed.read_fd, F_GETFD), -1);
  EXPECT_NE(::fcntl(borrowed.write_fd, F_GETFD), -1);

  Pipe owned;
  const int read_fd = owned.read_fd;
  const int write_fd = owned.write_fd;
  owned.read_fd = owned.write_fd = -1;  // ownership moves to the transport
  { FdTransport transport(read_fd, write_fd, /*owns_fds=*/true); }
  errno = 0;
  EXPECT_EQ(::fcntl(read_fd, F_GETFD), -1);
  EXPECT_EQ(errno, EBADF);
  errno = 0;
  EXPECT_EQ(::fcntl(write_fd, F_GETFD), -1);
  EXPECT_EQ(errno, EBADF);
}

}  // namespace
}  // namespace deproto::dist
