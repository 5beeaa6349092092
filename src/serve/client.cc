#include "serve/client.h"

#include "fl/payload.h"

namespace fedfc::serve {

Result<ServeClient> ServeClient::Connect(const std::string& host,
                                         uint16_t port, int timeout_ms) {
  net::FrameChannel channel(host, port, timeout_ms, timeout_ms);
  FEDFC_RETURN_IF_ERROR(channel.Connect());
  return ServeClient(std::move(channel));
}

Result<fl::Payload> ServeClient::Call(const std::string& task,
                                      const fl::Payload& payload) {
  net::Frame request;
  request.type = net::FrameType::kRequest;
  request.task = task;
  request.body = payload.Serialize();
  FEDFC_ASSIGN_OR_RETURN(net::Frame reply, channel_.Call(request));
  return fl::Payload::Deserialize(reply.body);
}

Result<fl::ForecastReply> ServeClient::Forecast(
    const fl::ForecastRequest& request) {
  FEDFC_ASSIGN_OR_RETURN(fl::Payload reply,
                         Call(fl::tasks::kForecast, request.ToPayload()));
  return fl::ForecastReply::FromPayload(reply);
}

Result<fl::PingReply> ServeClient::Ping() {
  FEDFC_ASSIGN_OR_RETURN(fl::Payload reply,
                         Call(fl::tasks::kPing, fl::PingRequest().ToPayload()));
  return fl::PingReply::FromPayload(reply);
}

}  // namespace fedfc::serve
