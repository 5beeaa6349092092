#include "net/frame_server.h"

#include "core/logging.h"

namespace fedfc::net {

Frame ReplyFrame(const Frame& request, const Result<fl::Payload>& reply) {
  Frame out;
  if (reply.ok()) {
    out.type = FrameType::kReply;
    out.task = request.task;
    out.body = reply->Serialize();
  } else {
    out = MakeErrorFrame(request.task, reply.status());
  }
  out.client_index = request.client_index;
  return out;
}

Status FrameServer::Serve() {
  while (!stopped()) {
    Result<Socket> conn = listener_.Accept(poll_interval_ms_);
    if (conn.status().code() == StatusCode::kDeadlineExceeded) continue;
    if (!conn.ok()) return conn.status();
    ServeConnection(std::move(*conn));
  }
  return Status::OK();
}

void FrameServer::ServeConnection(Socket conn) {
  while (!stopped()) {
    Status readable = conn.WaitReadable(poll_interval_ms_);
    if (readable.code() == StatusCode::kDeadlineExceeded) continue;  // Idle.
    if (!readable.ok()) return;  // Peer gone.
    Result<Frame> frame = ReadFrame(conn, io_timeout_ms_);
    if (!frame.ok()) {
      // EOF, a half-dead peer, or wire garbage (bad magic, unknown protocol
      // version, CRC mismatch, oversized declared lengths): answer with the
      // typed decode error (best effort), then drop the connection, because
      // the byte stream can no longer be trusted. A peer that reconnects
      // finds the loop back at accept.
      Status sent = WriteFrame(conn, MakeErrorFrame("", frame.status()),
                               io_timeout_ms_);
      FEDFC_LOG(Debug) << "frame server :" << port()
                       << ": dropping connection: " << frame.status()
                       << (sent.ok() ? "" : " (error reply also failed)");
      return;
    }
    if (frame->type == FrameType::kShutdown) {
      RequestStop();
      if (on_shutdown_) on_shutdown_();
      return;
    }
    Frame reply;
    if (frame->type == FrameType::kRequest) {
      reply = handler_(*frame);
    } else {
      reply = MakeErrorFrame(
          frame->task, Status::InvalidArgument("expected a request frame"));
      reply.client_index = frame->client_index;
    }
    Status sent = WriteFrame(conn, reply, io_timeout_ms_);
    if (!sent.ok()) {
      FEDFC_LOG(Debug) << "frame server :" << port()
                       << ": reply failed: " << sent;
      return;
    }
  }
}

}  // namespace fedfc::net
