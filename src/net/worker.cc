#include "net/worker.h"

#include <string>

#include "core/logging.h"
#include "fl/payload.h"
#include "fl/task_codec.h"

namespace fedfc::net {

Frame WorkerServer::HandleRequest(const Frame& request) {
  const Result<fl::Payload> reply = [&]() -> Result<fl::Payload> {
    if (request.client_index >= clients_.size()) {
      return Status::InvalidArgument(
          "worker: client index " + std::to_string(request.client_index) +
          " out of range (hosting " + std::to_string(clients_.size()) + ")");
    }
    fl::Client* client = clients_[request.client_index];
    FEDFC_ASSIGN_OR_RETURN(fl::Payload decoded,
                           fl::Payload::Deserialize(request.body));
    if (request.task == fl::tasks::kNumExamples) {
      return fl::NumExamplesReply{static_cast<int64_t>(client->num_examples())}
          .ToPayload();
    }
    return client->Handle(request.task, decoded);
  }();
  return ReplyFrame(request, reply);
}

Status WorkerServer::Serve() {
  FEDFC_CHECK(!clients_.empty());
  for (fl::Client* client : clients_) FEDFC_CHECK(client != nullptr);
  return server_.Serve();
}

}  // namespace fedfc::net
