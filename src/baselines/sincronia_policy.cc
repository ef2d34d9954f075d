#include "src/baselines/sincronia_policy.h"

#include <algorithm>
#include <cassert>

namespace saba {

std::vector<AppId> ComputeBssiOrder(const CoflowDemands& demands) {
  const size_t n = demands.app.size();
  const size_t num_ports = demands.link.size();
  assert(demands.row_begin.size() == n + 1);
  assert(demands.entry_port.size() == demands.row_begin[n]);
  assert(demands.entry_bits.size() == demands.row_begin[n]);

  // Remaining (scaled) demand per entry; BSSI scales the demand of unplaced
  // coflows down as later positions are filled.
  std::vector<double> bits = demands.entry_bits;

  // Each port's column: its (coflow, entry) cells in ascending coflow order,
  // so Select and Scale touch only the bottleneck's coflows.
  struct Cell {
    uint32_t coflow;
    uint32_t entry;
  };
  std::vector<uint32_t> column_begin(num_ports + 1, 0);
  for (const uint32_t port : demands.entry_port) {
    ++column_begin[port + 1];
  }
  for (size_t p = 0; p < num_ports; ++p) {
    column_begin[p + 1] += column_begin[p];
  }
  std::vector<Cell> column(bits.size());
  std::vector<uint32_t> next_cell(column_begin.begin(), column_begin.end() - 1);
  for (uint32_t c = 0; c < n; ++c) {
    for (uint32_t e = demands.row_begin[c]; e < demands.row_begin[c + 1]; ++e) {
      column[next_cell[demands.entry_port[e]]++] = {c, e};
    }
  }

  std::vector<bool> placed(n, false);
  std::vector<AppId> order(n, kInvalidApp);
  std::vector<double> port_total(num_ports);
  for (size_t slot = n; slot > 0; --slot) {
    // 1. Bottleneck port: largest total demand over unplaced coflows, ties to
    // the lowest LinkId. A port used only by placed coflows totals 0. It can
    // win only when every unplaced demand is 0 too, and then every candidate
    // in Select sees demand 0, wherever the bottleneck is.
    std::fill(port_total.begin(), port_total.end(), 0.0);
    for (size_t c = 0; c < n; ++c) {
      if (placed[c]) {
        continue;
      }
      for (uint32_t e = demands.row_begin[c]; e < demands.row_begin[c + 1]; ++e) {
        port_total[demands.entry_port[e]] += bits[e];
      }
    }
    size_t bottleneck = num_ports;
    LinkId bottleneck_link = kInvalidLink;
    double worst = -1;
    for (size_t p = 0; p < num_ports; ++p) {
      const double total = port_total[p];
      if (total > worst || (total == worst && demands.link[p] < bottleneck_link)) {
        worst = total;
        bottleneck = p;
        bottleneck_link = demands.link[p];
      }
    }
    uint32_t cell = 0;
    uint32_t cell_end = 0;
    if (bottleneck < num_ports) {
      cell = column_begin[bottleneck];
      cell_end = column_begin[bottleneck + 1];
    }

    // 2. Select: the unplaced coflow with the largest demand on the
    // bottleneck goes last (ties broken by app id for determinism). Coflows
    // with no demand anywhere can be placed last trivially. The walk merges
    // the bottleneck's column, which is in the same ascending coflow order.
    size_t chosen = n;
    double chosen_demand = -1;
    for (size_t c = 0; c < n; ++c) {
      double d = 0;
      if (cell < cell_end && column[cell].coflow == c) {
        d = bits[column[cell].entry];
        ++cell;
      }
      if (placed[c]) {
        continue;
      }
      if (d > chosen_demand ||
          (d == chosen_demand && (chosen == n || demands.app[c] > demands.app[chosen]))) {
        chosen_demand = d;
        chosen = c;
      }
    }
    assert(chosen < n);
    placed[chosen] = true;
    order[slot - 1] = demands.app[chosen];

    // 3. Scale: shrink the remaining coflows' demands by what the chosen one
    // no longer contends for at the bottleneck (unit-weight specialization:
    // subtract proportionally so earlier positions see the residual load).
    if (bottleneck < num_ports && chosen_demand > 0) {
      for (uint32_t k = column_begin[bottleneck]; k < column_begin[bottleneck + 1]; ++k) {
        if (!placed[column[k].coflow]) {
          double& d = bits[column[k].entry];
          d = std::max(0.0, d - chosen_demand * d / worst);
        }
      }
    }
  }
  return order;
}

SincroniaScheduler::SincroniaScheduler(FlowSimulator* flow_sim, SincroniaConfig config)
    : flow_sim_(flow_sim), config_(config) {
  assert(flow_sim != nullptr);
  assert(config_.num_priorities >= 1);
  // Topology mutations flip links up or down but never add one.
  latest_entry_.assign(flow_sim_->network()->topology().num_links(), -1);
  flow_sim_->SetPreAllocateHook([this] { RefreshPriorities(); });
}

void SincroniaScheduler::RefreshPriorities() {
  // One coflow per application, numbered in order of first appearance.
  // Coflows are few (fig10 averages about nine per call), so a linear scan
  // over their apps finds a flow's coflow.
  CoflowDemands& d = demands_;
  d.app.clear();
  flows_.clear();
  flow_coflow_.clear();
  flow_sim_->ForEachActiveFlow([&](const ActiveFlow& flow) {
    const uint32_t c =
        static_cast<uint32_t>(std::find(d.app.begin(), d.app.end(), flow.app) - d.app.begin());
    if (c == d.app.size()) {
      d.app.push_back(flow.app);
    }
    flows_.push_back(&flow);
    flow_coflow_.push_back(c);
  });
  if (flows_.empty()) {
    return;
  }

  // One row per coflow. Each (coflow, port) demand is summed over the
  // coflow's flows in ascending id order, starting from the first flow's
  // bits, as a zero-initialised accumulator would.
  const size_t n = d.app.size();
  d.row_begin.assign(1, 0);
  d.entry_port.clear();
  d.entry_bits.clear();
  d.link.clear();
  for (uint32_t c = 0; c < n; ++c) {
    const auto row_start = static_cast<int32_t>(d.entry_bits.size());
    for (size_t i = 0; i < flows_.size(); ++i) {
      if (flow_coflow_[i] != c) {
        continue;
      }
      const ActiveFlow& flow = *flows_[i];
      for (const LinkId link : *flow.path) {
        int32_t& entry = latest_entry_[static_cast<size_t>(link)];
        if (entry >= row_start) {
          d.entry_bits[static_cast<size_t>(entry)] += flow.remaining_bits;
          continue;
        }
        uint32_t port = 0;
        if (entry < 0) {
          port = static_cast<uint32_t>(d.link.size());
          d.link.push_back(link);
        } else {
          port = d.entry_port[static_cast<size_t>(entry)];
        }
        entry = static_cast<int32_t>(d.entry_bits.size());
        d.entry_port.push_back(port);
        d.entry_bits.push_back(flow.remaining_bits);
      }
    }
    d.row_begin.push_back(static_cast<uint32_t>(d.entry_bits.size()));
  }
  for (const LinkId link : d.link) {
    latest_entry_[static_cast<size_t>(link)] = -1;
  }

  const std::vector<AppId> order = ComputeBssiOrder(d);
  // Apps name coflows one to one, so each position finds its coflow by app.
  std::vector<int> priority(n);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    const auto c = static_cast<size_t>(std::find(d.app.begin(), d.app.end(), order[pos]) -
                                       d.app.begin());
    priority[c] = std::min(static_cast<int>(pos), config_.num_priorities - 1);
  }
  // Every flow, not only those whose coflow moved: flows started since the
  // last refresh need a class even when the order holds.
  for (size_t i = 0; i < flows_.size(); ++i) {
    flow_sim_->SetFlowPriority(flows_[i]->id, priority[flow_coflow_[i]]);
  }
}

}  // namespace saba
