#include "serve/client.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "fl/payload.h"
#include "fl/task_codec.h"
#include "net/frame.h"
#include "net/frame_server.h"
#include "net/socket.h"

namespace fedfc::serve {
namespace {

/// A raw forecast peer that answers every request with its own rows as the
/// predictions — so a reply names the request it answers — and holds the
/// first reply for `first_delay_ms`. Stops after `requests` requests and
/// returns how many connections it accepted.
size_t RunEchoPeer(net::Listener* listener, size_t requests,
                   int first_delay_ms) {
  size_t connections = 0;
  size_t answered = 0;
  while (answered < requests) {
    Result<net::Socket> conn = listener->Accept(5000);
    if (!conn.ok()) break;
    ++connections;
    while (answered < requests) {
      Result<net::Frame> request = net::ReadFrame(*conn, 5000);
      if (!request.ok()) break;  // The client dropped this stream.
      if (answered++ == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(first_delay_ms));
      }
      Result<fl::Payload> payload = fl::Payload::Deserialize(request->body);
      if (!payload.ok()) break;
      Result<fl::ForecastRequest> decoded =
          fl::ForecastRequest::FromPayload(*payload);
      if (!decoded.ok()) break;
      const fl::ForecastReply reply{decoded->rows, 1};
      const net::Frame out = net::ReplyFrame(*request, reply.ToPayload());
      if (!net::WriteFrame(*conn, out, 5000).ok()) break;
    }
  }
  return connections;
}

fl::ForecastRequest OneValue(double value) {
  fl::ForecastRequest request;
  request.n_cols = 1;
  request.rows = {value};
  return request;
}

TEST(ServeClientTest, LateReplyIsNeverReturnedForTheNextRequest) {
  constexpr int kDeadlineMs = 300;
  Result<net::Listener> listener = net::Listener::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  ThreadPool pool(2);
  auto peer = pool.Submit([&listener] {
    return RunEchoPeer(&*listener, 3, kDeadlineMs + 200);
  });

  Result<ServeClient> client =
      ServeClient::Connect("127.0.0.1", listener->port(), kDeadlineMs);
  ASSERT_TRUE(client.ok()) << client.status();
  // Request 1's reply arrives after the client's deadline.
  Result<fl::ForecastReply> first = client->Forecast(OneValue(1.0));
  EXPECT_EQ(first.status().code(), StatusCode::kDeadlineExceeded);
  // The next call gets its own answer or an error — never reply 1.
  Result<fl::ForecastReply> second = client->Forecast(OneValue(2.0));
  if (second.ok()) {
    EXPECT_EQ(second->predictions, std::vector<double>{2.0});
  }
  // After the failure the client reconnected to the same host and port.
  Result<fl::ForecastReply> third = client->Forecast(OneValue(3.0));
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(third->predictions, std::vector<double>{3.0});
  EXPECT_GE(peer.get(), 2u);
}

}  // namespace
}  // namespace fedfc::serve
