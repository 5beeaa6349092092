#ifndef FEDFC_NET_FRAME_CHANNEL_H_
#define FEDFC_NET_FRAME_CHANNEL_H_

#include <cstdint>
#include <string>
#include <utility>

#include "core/result.h"
#include "net/frame.h"
#include "net/socket.h"

namespace fedfc::net {

/// The one client call path of both planes: request/reply over one lazily
/// (re)connected TCP stream to a FrameServer. TcpTransport holds one per
/// worker; serve::ServeClient is one.
///
/// `Call` connects if the stream is closed, writes the request, reads one
/// reply, and checks that the reply answers it: the reply must echo the
/// request's slot (client index) and task. A kError reply comes back as its
/// carried Status and leaves the stream open — it is a well-paired answer.
/// Every other failure (connect, write, read, a missed deadline, a mismatched
/// echo, an unexpected frame type) closes the stream before returning, so a
/// late or half-read reply can never be taken for the answer to a later
/// call: the next call reconnects to the same host and port.
///
/// Not thread-safe, like the Socket it owns: one call at a time (TcpTransport
/// guards each channel with a mutex). Movable.
class FrameChannel {
 public:
  FrameChannel(std::string host, uint16_t port, int connect_timeout_ms,
               int io_timeout_ms)
      : host_(std::move(host)),
        port_(port),
        connect_timeout_ms_(connect_timeout_ms),
        io_timeout_ms_(io_timeout_ms) {}

  /// Opens the stream now unless it is already open.
  Status Connect();

  /// One request/reply round trip, as described above. On success the frame
  /// is a kReply.
  Result<Frame> Call(const Frame& request);

  /// Sends the kShutdown control frame (connecting first if needed), then
  /// closes the stream.
  Status SendShutdown();

 private:
  std::string host_;
  uint16_t port_;
  int connect_timeout_ms_;
  int io_timeout_ms_;
  Socket socket_;
};

}  // namespace fedfc::net

#endif  // FEDFC_NET_FRAME_CHANNEL_H_
