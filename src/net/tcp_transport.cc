#include "net/tcp_transport.h"

#include "fl/task_codec.h"

namespace fedfc::net {

TcpTransport::TcpTransport(std::vector<WorkerEndpoint> endpoints,
                           TcpTransportOptions options) {
  connections_.reserve(endpoints.size());
  for (size_t e = 0; e < endpoints.size(); ++e) {
    WorkerEndpoint& ep = endpoints[e];
    connections_.push_back(std::make_unique<Connection>(
        FrameChannel(std::move(ep.host), ep.port, options.connect_timeout_ms,
                     options.io_timeout_ms)));
    for (size_t slot = 0; slot < ep.num_clients; ++slot) {
      routes_.push_back({e, static_cast<uint32_t>(slot)});
    }
  }
}

void TcpTransport::CountFailure(const Status& status) {
  MutexLock lock(stats_mutex_);
  if (status.code() == StatusCode::kDeadlineExceeded) {
    stats_.timeouts += 1;
  } else {
    stats_.failures += 1;
  }
}

Result<fl::Payload> TcpTransport::Execute(size_t client_index,
                                          const std::string& task,
                                          const fl::Payload& request) {
  if (client_index >= routes_.size()) {
    return Status::OutOfRange("transport: no such client");
  }
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.client_index = routes_[client_index].slot;
  frame.task = task;
  frame.body = request.Serialize();
  {
    MutexLock lock(stats_mutex_);
    stats_.messages += 1;
    stats_.bytes_to_clients += EncodedFrameSize(frame);
  }
  Connection& conn = *connections_[routes_[client_index].endpoint];
  Result<Frame> reply = [&] {
    MutexLock lock(conn.mutex);
    return conn.channel.Call(frame);
  }();
  if (!reply.ok()) {
    CountFailure(reply.status());
    return reply.status();
  }
  {
    MutexLock lock(stats_mutex_);
    stats_.bytes_to_server += EncodedFrameSize(*reply);
  }
  Result<fl::Payload> decoded = fl::Payload::Deserialize(reply->body);
  if (!decoded.ok()) CountFailure(decoded.status());
  return decoded;
}

fl::TransportStats TcpTransport::stats() const {
  MutexLock lock(stats_mutex_);
  return stats_;
}

Result<std::vector<size_t>> TcpTransport::QueryNumExamples() {
  std::vector<size_t> sizes;
  sizes.reserve(routes_.size());
  for (size_t j = 0; j < routes_.size(); ++j) {
    FEDFC_ASSIGN_OR_RETURN(
        fl::Payload reply,
        Execute(j, fl::tasks::kNumExamples, fl::Payload()));
    FEDFC_ASSIGN_OR_RETURN(fl::NumExamplesReply decoded,
                           fl::NumExamplesReply::FromPayload(reply));
    if (decoded.n_examples < 0) {
      return Status::Internal("transport: negative example count from client " +
                              std::to_string(j));
    }
    sizes.push_back(static_cast<size_t>(decoded.n_examples));
  }
  return sizes;
}

Status TcpTransport::ShutdownWorker(size_t client_index) {
  if (client_index >= routes_.size()) {
    return Status::OutOfRange("transport: no such client");
  }
  Connection& conn = *connections_[routes_[client_index].endpoint];
  MutexLock lock(conn.mutex);
  return conn.channel.SendShutdown();
}

}  // namespace fedfc::net
