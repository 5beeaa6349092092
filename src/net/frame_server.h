#ifndef FEDFC_NET_FRAME_SERVER_H_
#define FEDFC_NET_FRAME_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>

#include "core/result.h"
#include "fl/payload.h"
#include "net/frame.h"
#include "net/socket.h"

namespace fedfc::net {

/// The one frame-serving loop behind both planes: WorkerServer (federation)
/// and serve::ForecastServer (inference) are `Frame -> Frame` handlers over
/// it. Framing policy lives here and nowhere else:
///
///  - `Serve` accepts one connection at a time off the listener and answers
///    its frames in order; between frames (and between connections) it idles
///    in `poll_interval_ms` slices, re-checking the stop flag.
///  - A `kRequest` frame goes to the handler, whose frame is written back.
///  - Any other frame type is answered with a typed InvalidArgument error
///    frame echoing the slot and task; the connection stays up.
///  - Bytes that do not decode as a frame get a best-effort typed error
///    frame, then the connection is dropped: the stream can no longer be
///    trusted. A failed reply write drops the connection too. Either way the
///    loop goes back to accept, so a reconnecting peer finds it ready.
///  - A `kShutdown` frame stops every accept loop of this server and then
///    runs the owner's `on_shutdown` hook (for wake-ups a signal handler may
///    not make).
///
/// The server spawns no thread. Several threads may run `Serve` on one
/// FrameServer at once: they share the non-blocking listener (a wake-up lost
/// to a sibling just re-polls) and the handler, which must then be
/// thread-safe.
class FrameServer {
 public:
  /// Answers one request frame with a kReply or kError frame.
  using Handler = std::function<Frame(const Frame& request)>;

  FrameServer(Listener listener, int poll_interval_ms, int io_timeout_ms,
              Handler handler, std::function<void()> on_shutdown = {})
      : listener_(std::move(listener)),
        poll_interval_ms_(poll_interval_ms),
        io_timeout_ms_(io_timeout_ms),
        handler_(std::move(handler)),
        on_shutdown_(std::move(on_shutdown)) {}

  [[nodiscard]] uint16_t port() const { return listener_.port(); }

  /// One accept loop on the calling thread. Blocks until a shutdown frame
  /// arrives or RequestStop is called; returns non-OK only when the
  /// listening socket itself fails.
  Status Serve();

  /// Asks every accept loop to exit at its next idle poll. Lock-free and
  /// async-signal-safe — which is why the flag is a std::atomic and not
  /// fedfc::Mutex-guarded state: the owners' RequestStop is called from
  /// SIGINT/SIGTERM handlers, where taking any lock is forbidden.
  /// Everything else the loop touches is immutable after construction (see
  /// docs/STATIC_ANALYSIS.md, "Annotation policy").
  void RequestStop() { stop_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool stopped() const {
    return stop_.load(std::memory_order_relaxed);
  }

 private:
  void ServeConnection(Socket conn);

  Listener listener_;
  const int poll_interval_ms_;
  const int io_timeout_ms_;
  const Handler handler_;
  const std::function<void()> on_shutdown_;
  std::atomic<bool> stop_{false};
};

/// The frame a handler answers `request` with: a kReply carrying the
/// serialized payload, or a kError carrying the status. Either echoes the
/// request's slot and task, which is how FrameChannel pairs them.
Frame ReplyFrame(const Frame& request, const Result<fl::Payload>& reply);

}  // namespace fedfc::net

#endif  // FEDFC_NET_FRAME_SERVER_H_
