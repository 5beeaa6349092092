#include "net/frame_channel.h"

namespace fedfc::net {

Status FrameChannel::Connect() {
  if (socket_.valid()) return Status::OK();
  FEDFC_ASSIGN_OR_RETURN(socket_,
                         Socket::ConnectTcp(host_, port_, connect_timeout_ms_));
  return Status::OK();
}

Result<Frame> FrameChannel::Call(const Frame& request) {
  FEDFC_RETURN_IF_ERROR(Connect());
  Result<Frame> reply = [&]() -> Result<Frame> {
    FEDFC_RETURN_IF_ERROR(WriteFrame(socket_, request, io_timeout_ms_));
    FEDFC_ASSIGN_OR_RETURN(Frame frame, ReadFrame(socket_, io_timeout_ms_));
    if (frame.client_index != request.client_index ||
        frame.task != request.task) {
      // The request/reply pairing on this stream is broken (a stale frame
      // from an earlier failure, or a peer answering something else).
      return Status::Internal(
          "channel: reply for slot " + std::to_string(frame.client_index) +
          " task '" + frame.task + "' to a request for slot " +
          std::to_string(request.client_index) + " task '" + request.task +
          "'");
    }
    if (frame.type != FrameType::kReply && frame.type != FrameType::kError) {
      return Status::Internal("channel: unexpected frame type in reply to '" +
                              request.task + "'");
    }
    return frame;
  }();
  if (!reply.ok()) {
    // The stream may hold a half-read or stale frame — poison it; the next
    // call reconnects.
    socket_.Close();
    return reply.status();
  }
  if (reply->type == FrameType::kError) {
    Status status = ErrorFrameStatus(*reply);
    // A hostile peer can send an error frame that carries kOk.
    if (status.ok()) return Status::Internal("channel: error frame without a code");
    return status;
  }
  return reply;
}

Status FrameChannel::SendShutdown() {
  FEDFC_RETURN_IF_ERROR(Connect());
  Frame frame;
  frame.type = FrameType::kShutdown;
  Status sent = WriteFrame(socket_, frame, io_timeout_ms_);
  socket_.Close();
  return sent;
}

}  // namespace fedfc::net
