#ifndef FEDFC_NET_WORKER_H_
#define FEDFC_NET_WORKER_H_

#include <utility>
#include <vector>

#include "core/result.h"
#include "fl/client.h"
#include "net/frame.h"
#include "net/frame_server.h"
#include "net/socket.h"

namespace fedfc::net {

struct WorkerOptions {
  /// Granularity at which the serve loop re-checks its stop flag while idle
  /// (waiting for a connection or for the next frame on one).
  int poll_interval_ms = 200;
  /// Per send/receive deadline once a frame transfer has started.
  int io_timeout_ms = 30000;
};

/// Hosts N fl::Clients behind one listening socket: the worker half of the
/// multi-process deployment (fedfc_worker wraps this behind a CLI; the
/// loopback tests run it on pool threads). Each frame addresses one hosted
/// client by its worker-local slot in the frame header's client-index word;
/// replies echo the slot back. Most deployments host one client per worker
/// (slot 0), but a multiplexed worker lets a 1024-client federation run on
/// a handful of processes.
///
/// Lifecycle: `Serve` runs one net::FrameServer accept loop on the calling
/// thread, so the worker answers one connection at a time (framing, garbage
/// and shutdown policy: net/frame_server.h). This class is only the handler:
/// the `__num_examples` control task is answered from the addressed client's
/// size, everything else goes to its `Handle`, and the result travels back
/// as a `kReply` or `kError` frame. An out-of-range client index is answered
/// with an error frame, not a dropped connection — the server sees a typed
/// per-call failure. One connection at a time is exactly the Transport
/// contract: a given client is never driven concurrently — and since all of
/// a worker's clients share its single connection, neither are two clients
/// of the same worker.
class WorkerServer {
 public:
  /// Single-client worker: the common one-process-per-client deployment.
  WorkerServer(Listener listener, fl::Client* client,
               WorkerOptions options = {})
      : WorkerServer(std::move(listener), std::vector<fl::Client*>{client},
                     options) {}

  /// Multiplexed worker hosting `clients[i]` at local slot `i`.
  WorkerServer(Listener listener, std::vector<fl::Client*> clients,
               WorkerOptions options = {})
      : clients_(std::move(clients)),
        server_(std::move(listener), options.poll_interval_ms,
                options.io_timeout_ms,
                [this](const Frame& request) { return HandleRequest(request); }) {}

  [[nodiscard]] uint16_t port() const { return server_.port(); }
  [[nodiscard]] size_t num_clients() const { return clients_.size(); }

  /// Blocks until a shutdown frame arrives or RequestStop is called.
  /// Returns non-OK only when the listening socket itself fails.
  Status Serve();

  /// Asks the serve loop to exit at its next idle poll. Async-signal-safe
  /// (one relaxed atomic store): fedfc_worker calls it from its SIGINT and
  /// SIGTERM handlers.
  void RequestStop() { server_.RequestStop(); }

 private:
  Frame HandleRequest(const Frame& request);

  std::vector<fl::Client*> clients_;
  FrameServer server_;
};

}  // namespace fedfc::net

#endif  // FEDFC_NET_WORKER_H_
