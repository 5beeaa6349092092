#ifndef FEDFC_SERVE_CLIENT_H_
#define FEDFC_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>

#include "core/result.h"
#include "fl/task_codec.h"
#include "net/frame_channel.h"

namespace fedfc::serve {

/// Blocking request/reply client for a ForecastServer — the counterpart the
/// e2e tests, the load generator, and embedding applications use. One
/// net::FrameChannel, one outstanding request at a time; error frames come
/// back as their typed Status. After any other failed call the stream is
/// closed, and the next call reconnects to the same host and port — a late
/// reply is never returned as the answer to a later request.
class ServeClient {
 public:
  static Result<ServeClient> Connect(const std::string& host, uint16_t port,
                                     int timeout_ms = 5000);

  /// One batch-of-rows forecast round trip.
  [[nodiscard]] Result<fl::ForecastReply> Forecast(
      const fl::ForecastRequest& request);

  /// Liveness probe; the reply carries the live model version.
  [[nodiscard]] Result<fl::PingReply> Ping();

  /// Asks the server to stop (the frame-level shutdown control signal).
  [[nodiscard]] Status SendShutdown() { return channel_.SendShutdown(); }

 private:
  explicit ServeClient(net::FrameChannel channel)
      : channel_(std::move(channel)) {}

  /// One request/reply call for `task`, returning the decoded reply body.
  Result<fl::Payload> Call(const std::string& task, const fl::Payload& payload);

  net::FrameChannel channel_;
};

}  // namespace fedfc::serve

#endif  // FEDFC_SERVE_CLIENT_H_
