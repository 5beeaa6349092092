// FrameChannel pairing rules, driven against a scripted raw peer: a
// well-paired error reply keeps the stream, anything that breaks the
// request/reply pairing closes it, and the next call reconnects.

#include "net/frame_channel.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "core/thread_pool.h"
#include "fl/payload.h"
#include "net/frame.h"
#include "net/frame_server.h"
#include "net/socket.h"

namespace fedfc::net {
namespace {

using Script = std::function<Frame(const Frame& request, size_t n)>;

/// Answers the n-th request it reads (counted across connections) with
/// `script(request, n)` until `requests` have been answered. Returns how
/// many connections it accepted.
size_t RunScriptedPeer(Listener* listener, size_t requests,
                       const Script& script) {
  size_t connections = 0;
  size_t answered = 0;
  while (answered < requests) {
    Result<Socket> conn = listener->Accept(5000);
    if (!conn.ok()) break;
    ++connections;
    while (answered < requests) {
      Result<Frame> request = ReadFrame(*conn, 5000);
      if (!request.ok()) break;  // The channel dropped this stream.
      if (!WriteFrame(*conn, script(*request, answered++), 5000).ok()) break;
    }
  }
  return connections;
}

Frame Request(uint32_t slot) {
  Frame request;
  request.type = FrameType::kRequest;
  request.client_index = slot;
  request.task = "any";
  request.body = fl::Payload().Serialize();
  return request;
}

Frame GoodReply(const Frame& request) {
  return ReplyFrame(request, fl::Payload());
}

/// Runs `calls` against a scripted peer and returns the connection count.
size_t WithPeer(size_t requests, const Script& script,
                const std::function<void(FrameChannel&)>& calls) {
  Result<Listener> listener = Listener::ListenTcp("127.0.0.1", 0);
  EXPECT_TRUE(listener.ok()) << listener.status();
  ThreadPool pool(2);
  auto peer = pool.Submit([&] {
    return RunScriptedPeer(&*listener, requests, script);
  });
  FrameChannel channel("127.0.0.1", listener->port(), 2000, 2000);
  calls(channel);
  return peer.get();
}

TEST(FrameChannelTest, ErrorReplyIsItsStatusAndKeepsTheStream) {
  const size_t connections = WithPeer(
      2,
      [](const Frame& request, size_t n) {
        return n == 0 ? ReplyFrame(request, Status::NotFound("no such task"))
                      : GoodReply(request);
      },
      [](FrameChannel& channel) {
        Result<Frame> first = channel.Call(Request(3));
        ASSERT_FALSE(first.ok());
        EXPECT_EQ(first.status().code(), StatusCode::kNotFound);
        Result<Frame> second = channel.Call(Request(3));
        ASSERT_TRUE(second.ok()) << second.status();
        EXPECT_EQ(second->type, FrameType::kReply);
      });
  EXPECT_EQ(connections, 1u);  // A paired error answer is not a fault.
}

TEST(FrameChannelTest, MismatchedEchoClosesTheStreamAndTheNextCallReconnects) {
  const size_t connections = WithPeer(
      3,
      [](const Frame& request, size_t n) {
        Frame reply = GoodReply(request);
        if (n == 0) reply.client_index += 1;  // Answers another slot.
        if (n == 1) reply.task = "other";     // Answers another task.
        return reply;
      },
      [](FrameChannel& channel) {
        for (int i = 0; i < 2; ++i) {
          Result<Frame> broken = channel.Call(Request(0));
          ASSERT_FALSE(broken.ok());
          EXPECT_EQ(broken.status().code(), StatusCode::kInternal);
        }
        Result<Frame> ok = channel.Call(Request(0));
        EXPECT_TRUE(ok.ok()) << ok.status();
      });
  EXPECT_EQ(connections, 3u);
}

TEST(FrameChannelTest, MalformedRepliesAreErrorsNotCrashes) {
  const size_t connections = WithPeer(
      3,
      [](const Frame& request, size_t n) {
        Frame reply = GoodReply(request);
        if (n == 0) reply.type = FrameType::kRequest;  // Not an answer.
        if (n == 1) {
          reply.type = FrameType::kError;  // An error that carries kOk.
          reply.status_code = StatusCode::kOk;
        }
        return reply;
      },
      [](FrameChannel& channel) {
        Result<Frame> wrong_type = channel.Call(Request(0));
        ASSERT_FALSE(wrong_type.ok());
        EXPECT_EQ(wrong_type.status().code(), StatusCode::kInternal);
        Result<Frame> ok_error = channel.Call(Request(0));
        ASSERT_FALSE(ok_error.ok());
        EXPECT_EQ(ok_error.status().code(), StatusCode::kInternal);
        Result<Frame> ok = channel.Call(Request(0));
        EXPECT_TRUE(ok.ok()) << ok.status();
      });
  // Only the wrong frame type broke the pairing; the codeless error frame
  // was still a paired answer.
  EXPECT_EQ(connections, 2u);
}

}  // namespace
}  // namespace fedfc::net
