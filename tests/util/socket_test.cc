// Frame writing: WriteFrames puts several length-prefixed frames on the
// wire in one call, with the same bytes as writing them one by one, and
// ReadFrame reads them back.
#include "src/util/socket.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

namespace lockdoc {
namespace {

struct SocketPair {
  UniqueFd writer;
  UniqueFd reader;
};

SocketPair MakeSocketPair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {UniqueFd(fds[0]), UniqueFd(fds[1])};
}

// Everything the peer sends until it closes its end.
std::string ReadAll(int fd) {
  std::string bytes;
  char buffer[65536];
  for (;;) {
    ssize_t got = ::read(fd, buffer, sizeof(buffer));
    if (got <= 0) {
      return bytes;
    }
    bytes.append(buffer, static_cast<size_t>(got));
  }
}

std::string Header(uint32_t length) {
  return {static_cast<char>(length >> 24), static_cast<char>((length >> 16) & 0xff),
          static_cast<char>((length >> 8) & 0xff), static_cast<char>(length & 0xff)};
}

// The payloads of a byte stream of complete frames; fails the test on a
// truncated one.
std::vector<std::string> ParseFrames(const std::string& bytes) {
  std::vector<std::string> frames;
  size_t pos = 0;
  while (pos < bytes.size()) {
    EXPECT_LE(pos + 4, bytes.size()) << "truncated header";
    if (pos + 4 > bytes.size()) {
      break;
    }
    const auto* h = reinterpret_cast<const unsigned char*>(bytes.data() + pos);
    const size_t length = (size_t{h[0]} << 24) | (size_t{h[1]} << 16) | (size_t{h[2]} << 8) | h[3];
    pos += 4;
    EXPECT_LE(pos + length, bytes.size()) << "truncated payload";
    frames.push_back(bytes.substr(pos, length));
    pos += length;
  }
  return frames;
}

TEST(SocketFrameTest, WriteFramesSendsEachPayloadAsOneFrame) {
  SocketPair pair = MakeSocketPair();
  ASSERT_TRUE(WriteFrames(pair.writer.get(), {"status=ok\n", "the output\n"}).ok());
  pair.writer.Reset();
  std::string bytes = ReadAll(pair.reader.get());
  EXPECT_EQ(bytes, Header(10) + "status=ok\n" + Header(11) + "the output\n");
  EXPECT_EQ(ParseFrames(bytes), (std::vector<std::string>{"status=ok\n", "the output\n"}));
}

TEST(SocketFrameTest, EmptyPayloadIsAZeroLengthFrame) {
  SocketPair pair = MakeSocketPair();
  ASSERT_TRUE(WriteFrames(pair.writer.get(), {"status=error\n", ""}).ok());
  pair.writer.Reset();
  std::string bytes = ReadAll(pair.reader.get());
  EXPECT_EQ(bytes.size(), 4 + 13 + 4u);
  EXPECT_EQ(ParseFrames(bytes), (std::vector<std::string>{"status=error\n", ""}));
}

TEST(SocketFrameTest, WriteFrameMatchesOnePayloadWriteFrames) {
  SocketPair one = MakeSocketPair();
  SocketPair many = MakeSocketPair();
  ASSERT_TRUE(WriteFrame(one.writer.get(), "pass=check\n").ok());
  ASSERT_TRUE(WriteFrame(one.writer.get(), "").ok());
  ASSERT_TRUE(WriteFrames(many.writer.get(), {"pass=check\n", ""}).ok());
  one.writer.Reset();
  many.writer.Reset();
  EXPECT_EQ(ReadAll(one.reader.get()), ReadAll(many.reader.get()));
}

TEST(SocketFrameTest, LargePayloadsArriveWhole) {
  // Far above the socket buffer, so the writer blocks and resumes while the
  // reader drains.
  const std::string head(3, 'h');
  std::string body(4 << 20, '\0');
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<char>(i * 131 % 251);
  }
  SocketPair pair = MakeSocketPair();
  std::thread writer([&] {
    EXPECT_TRUE(WriteFrames(pair.writer.get(), {head, body}).ok());
    pair.writer.Reset();
  });
  FrameRead first = ReadFrame(pair.reader.get(), 10000, 10000, 0);
  FrameRead second = ReadFrame(pair.reader.get(), 10000, 10000, 0);
  writer.join();
  ASSERT_EQ(first.status, FrameStatus::kOk) << first.error;
  ASSERT_EQ(second.status, FrameStatus::kOk) << second.error;
  EXPECT_EQ(first.payload, head);
  EXPECT_TRUE(second.payload == body);
  EXPECT_EQ(ReadFrame(pair.reader.get(), 1000, 1000, 0).status, FrameStatus::kClosed);
}

TEST(SocketFrameTest, WriteToAClosedPeerIsAnError) {
  SocketPair pair = MakeSocketPair();
  pair.reader.Reset();
  EXPECT_FALSE(WriteFrames(pair.writer.get(), {"meta", "out"}).ok());
}

}  // namespace
}  // namespace lockdoc
