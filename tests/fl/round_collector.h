#ifndef FEDFC_TESTS_FL_ROUND_COLLECTOR_H_
#define FEDFC_TESTS_FL_ROUND_COLLECTOR_H_

// Test-side buffering of a streaming round: tests that assert on a whole
// round at once (reply count, per-reply weights, outcomes) collect it here.
// Weights stay RAW |D_j|, exactly as the round streamed them; nothing is
// renormalized, so a test that wants Equation 1's mean folds the collected
// replies through fl::ScalarAccumulator like the engine does.

#include <string>
#include <utility>
#include <vector>

#include "core/result.h"
#include "fl/aggregation.h"
#include "fl/round.h"

namespace fedfc::fl {

/// Every successful reply of one round, in consumption order, plus the
/// round's per-client outcomes and trace.
struct CollectedRound {
  std::vector<ClientReply> replies;
  std::vector<ClientOutcome> outcomes;
  RoundTrace trace;
};

/// Keeps each consumed reply as it arrives.
class ReplyCollector : public ReplyConsumer {
 public:
  Status Consume(ClientReply&& reply) override {
    replies.push_back(std::move(reply));
    return Status::OK();
  }
  Status Finish() override { return Status::OK(); }

  std::vector<ClientReply> replies;
};

/// Runs one round through a ReplyCollector and returns it buffered.
inline Result<CollectedRound> CollectRound(RoundRunner& runner,
                                           const RoundSpec& spec) {
  ReplyCollector collector;
  FEDFC_ASSIGN_OR_RETURN(RoundSummary summary,
                         runner.RunRound(spec, collector));
  return CollectedRound{std::move(collector.replies),
                        std::move(summary.outcomes), summary.trace};
}

/// Equation 1 over collected replies: the raw-weight mean of a scalar key.
inline Result<double> WeightedMean(const std::vector<ClientReply>& replies,
                                   const std::string& key) {
  ScalarAccumulator acc;
  for (const ClientReply& r : replies) {
    FEDFC_ASSIGN_OR_RETURN(double v, r.payload.GetDouble(key));
    acc.Add(r.weight, v);
  }
  return acc.Mean();
}

}  // namespace fedfc::fl

#endif  // FEDFC_TESTS_FL_ROUND_COLLECTOR_H_
