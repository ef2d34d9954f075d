#include "src/net/wrr_reference.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace saba {
namespace {

// Deficit counters live on an integer "weight-unit x bit" grid: a queue banks
// weight_units * packet_bits per visit and a packet costs
// min_weight_units * packet_bits, so the long-run service ratio between two
// queues is exactly the ratio of their quantized weights. Inside a queue the
// grid is kWeightScale * packet_bits per packet against
// WeightUnits(intra_weight) * packet_bits banked per pass. Products stay below
// 2^55 (weight_units <= 2^40, packet_bits is MTU-scale), far from int64 range.
struct FlowState {
  int64_t weight_units = kWeightScale;
  int64_t budget_bits = std::numeric_limits<int64_t>::max();
  int64_t deficit = 0;  // weight-unit x bits.
  int64_t sent = 0;     // bits.

  bool Backlogged(int64_t packet_bits) const { return budget_bits >= packet_bits; }
};

struct QueueState {
  int64_t weight_units = kWeightScale;
  int64_t deficit = 0;  // weight-unit x bits.
  std::vector<int> flow_ids;
  size_t cursor = 0;  // Intra-queue round-robin position.
};

}  // namespace

WrrResult SimulateWrrPort(const WrrPortSpec& port, const std::vector<WrrFlowSpec>& flows,
                          double horizon_seconds) {
  assert(port.capacity_bps > 0);
  assert(!port.queue_weights.empty());
  assert(horizon_seconds > 0);

  std::vector<QueueState> queues(port.queue_weights.size());
  int64_t min_weight_units = std::numeric_limits<int64_t>::max();
  for (size_t q = 0; q < queues.size(); ++q) {
    assert(port.queue_weights[q] > 0);
    queues[q].weight_units = WeightUnits(port.queue_weights[q]);
    min_weight_units = std::min(min_weight_units, queues[q].weight_units);
  }

  std::vector<FlowState> state(flows.size());
  for (size_t f = 0; f < flows.size(); ++f) {
    assert(flows[f].queue >= 0 && static_cast<size_t>(flows[f].queue) < queues.size());
    assert(flows[f].intra_weight > 0);
    state[f].weight_units = WeightUnits(flows[f].intra_weight);
    if (flows[f].total_bits >= 0) {
      state[f].budget_bits = static_cast<int64_t>(flows[f].total_bits + 0.5);
    }
    queues[static_cast<size_t>(flows[f].queue)].flow_ids.push_back(static_cast<int>(f));
  }

  constexpr int64_t packet_bits = static_cast<int64_t>(kPacketBits);
  const int64_t queue_packet_cost = min_weight_units * packet_bits;
  const int64_t flow_packet_cost = kWeightScale * packet_bits;
  const int64_t budget =
      static_cast<int64_t>(BpsToDouble(port.capacity_bps) * horizon_seconds + 0.5);
  int64_t served = 0;

  // One packet-sized quantum per unit of normalized weight per round.
  auto queue_backlogged = [&](const QueueState& queue) {
    for (int f : queue.flow_ids) {
      if (state[static_cast<size_t>(f)].Backlogged(packet_bits)) {
        return true;
      }
    }
    return false;
  };

  bool progress = true;
  while (served + packet_bits <= budget && progress) {
    progress = false;
    for (QueueState& queue : queues) {
      if (!queue_backlogged(queue)) {
        queue.deficit = 0;  // Idle queues don't bank service (work conservation).
        continue;
      }
      queue.deficit += queue.weight_units * packet_bits;

      // Serve packets while the queue's deficit and the port budget allow.
      while (queue.deficit >= queue_packet_cost && served + packet_bits <= budget &&
             queue_backlogged(queue)) {
        // Intra-queue deficit round robin over backlogged flows. The scan
        // starts from a snapshot of the cursor so each flow is visited at
        // most once per packet opportunity.
        bool sent_one = false;
        const size_t start = queue.cursor;
        for (size_t step = 0; step < queue.flow_ids.size() && !sent_one; ++step) {
          const size_t idx = (start + step) % queue.flow_ids.size();
          FlowState& flow = state[static_cast<size_t>(queue.flow_ids[idx])];
          if (!flow.Backlogged(packet_bits)) {
            continue;
          }
          flow.deficit += flow.weight_units * packet_bits;
          if (flow.deficit >= flow_packet_cost) {
            flow.deficit -= flow_packet_cost;
            flow.sent += packet_bits;
            flow.budget_bits = flow.budget_bits == std::numeric_limits<int64_t>::max()
                                   ? flow.budget_bits
                                   : flow.budget_bits - packet_bits;
            queue.deficit -= queue_packet_cost;
            served += packet_bits;
            sent_one = true;
            progress = true;
            queue.cursor = (idx + 1) % queue.flow_ids.size();
          }
        }
        if (!sent_one) {
          // Every backlogged flow banked intra-deficit this pass; advance the
          // scan start so accumulation is fair and keep cycling (a sender is
          // guaranteed within 1/min_intra_weight passes).
          queue.cursor = (start + 1) % queue.flow_ids.size();
        }
      }
      // Cap banked deficit at one round's worth so weights stay proportional.
      queue.deficit = std::min(queue.deficit, queue.weight_units * packet_bits);
    }
  }

  WrrResult result;
  result.flow_bits.reserve(flows.size());
  result.queue_bits.assign(queues.size(), 0);
  for (size_t f = 0; f < flows.size(); ++f) {
    result.flow_bits.push_back(static_cast<double>(state[f].sent));
    result.queue_bits[static_cast<size_t>(flows[f].queue)] += static_cast<double>(state[f].sent);
    result.total_bits += static_cast<double>(state[f].sent);
  }
  return result;
}

}  // namespace saba
