// Model validation: the runnable evidence behind DESIGN.md's central
// substitution claim — that the fluid WFQ allocator reproduces what a
// packet-granularity WRR fabric actually delivers.
//
//   1. One shared port: fluid shares vs deficit-weighted round robin.
//   2. A multi-hop fabric with cross traffic and finite buffers
//      (credit-based flow control): fluid rates vs the packet simulator.

#include <cmath>
#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "src/exp/report.h"
#include "src/net/allocation_engine.h"
#include "src/net/allocator.h"
#include "src/net/packet_sim.h"
#include "src/net/units.h"
#include "src/net/wrr_reference.h"
#include "src/sim/rng.h"

namespace saba {
namespace {

void SinglePortStudy() {
  std::cout << "--- Single port: fluid WFQ vs packet-level WRR ---\n";
  TablePrinter table({"Config", "Flow", "Fluid share", "WRR share", "Delta"});

  struct Case {
    const char* name;
    std::vector<double> queue_weights;
    // (queue, intra weight) per flow.
    std::vector<std::pair<int, double>> flows;
  };
  const std::vector<Case> cases = {
      {"2 queues 3:1", {3, 1}, {{0, 1.0}, {1, 1.0}}},
      {"3 queues 4:2:1", {4, 2, 1}, {{0, 1.0}, {1, 1.0}, {2, 1.0}}},
      {"shared queue + prefetch", {1}, {{0, 1.0}, {0, 0.15}}},
      {"mixed", {2, 1}, {{0, 1.0}, {0, 1.0}, {1, 1.0}, {1, 0.15}}},
  };

  // Each case is an independent fluid-vs-WRR comparison: one sweep task each,
  // returning its table rows.
  using Rows = std::vector<std::vector<std::string>>;
  const std::vector<Rows> case_rows =
      RunSweep<Rows>("validation ports", cases.size(), [&](size_t idx) {
        const Case& c = cases[idx];
        // Fluid: all flows over one a->b link.
        Topology topo;
        const NodeId a = topo.AddNode(NodeKind::kHost);
        const NodeId b = topo.AddNode(NodeKind::kHost);
        topo.AddLink(a, b, Gbps64(1));
        Network network(std::move(topo), static_cast<int>(c.queue_weights.size()));
        network.port(0).queue_weights = c.queue_weights;

        std::vector<std::unique_ptr<ActiveFlow>> storage;
        std::vector<ActiveFlow*> fluid;
        std::vector<WrrFlowSpec> packet;
        for (size_t f = 0; f < c.flows.size(); ++f) {
          network.port(0).sl_to_queue[f] = c.flows[f].first;
          auto flow = std::make_unique<ActiveFlow>();
          flow->id = static_cast<FlowId>(f);
          flow->app = static_cast<AppId>(f);
          flow->sl = static_cast<int>(f);
          flow->intra_weight = c.flows[f].second;
          flow->remaining_bits = Gigabytes(10);
          flow->path = &network.router().Route(a, b, 0);
          storage.push_back(std::move(flow));
          fluid.push_back(storage.back().get());
          packet.push_back({c.flows[f].first, c.flows[f].second, -1});
        }
        AllocateFromScratch(fluid, network, AllocationDiscipline::kWfqSlQueues);
        const WrrResult wrr =
            SimulateWrrPort({Gbps64(1), c.queue_weights}, packet, /*horizon=*/2.0);

        Rows rows;
        for (size_t f = 0; f < c.flows.size(); ++f) {
          const double fluid_share = fluid[f]->rate / Gbps(1);
          const double wrr_share = wrr.flow_bits[f] / wrr.total_bits;
          rows.push_back({std::string(f == 0 ? c.name : ""), std::to_string(f),
                          Fmt(fluid_share, 3), Fmt(wrr_share, 3),
                          Fmt(std::fabs(fluid_share - wrr_share), 3)});
        }
        return rows;
      });
  for (const Rows& rows : case_rows) {
    for (const std::vector<std::string>& row : rows) {
      table.AddRow(row);
    }
  }
  table.Print(std::cout);
  std::cout << '\n';
}

void MultiHopStudy(uint64_t seed) {
  std::cout << "--- Multi-hop fabric: fluid rates vs packet simulation "
               "(credit-based flow control, 2 weighted VLs) ---\n";
  Rng rng(seed);
  Network network(BuildSpineLeaf({.num_spine = 2,
                                  .num_leaf = 2,
                                  .num_tor = 2,
                                  .hosts_per_tor = 3,
                                  .num_pods = 2,
                                  .host_link_bps = Gbps64(1),
                                  .tor_leaf_bps = Gbps64(1),
                                  .leaf_spine_bps = Gbps64(1)}),
                  2);
  network.MapSlToQueueEverywhere(1, 1);
  for (size_t l = 0; l < network.topology().num_links(); ++l) {
    network.port(static_cast<LinkId>(l)).queue_weights = {2.0, 1.0};
  }

  const std::vector<NodeId> hosts = network.topology().Hosts();
  std::vector<PacketFlowSpec> packet_flows;
  std::vector<std::unique_ptr<ActiveFlow>> storage;
  std::vector<ActiveFlow*> fluid_flows;
  for (int f = 0; f < 6; ++f) {
    NodeId src = rng.Choice(hosts);
    NodeId dst = rng.Choice(hosts);
    while (dst == src) {
      dst = rng.Choice(hosts);
    }
    const int sl = static_cast<int>(rng.UniformInt(0, 1));
    packet_flows.push_back({src, dst, sl, 1.0, -1, static_cast<uint64_t>(f)});
    auto flow = std::make_unique<ActiveFlow>();
    flow->id = f;
    flow->app = f;
    flow->sl = sl;
    flow->remaining_bits = Gigabytes(10);
    flow->path = &network.router().Route(src, dst, static_cast<uint64_t>(f));
    storage.push_back(std::move(flow));
    fluid_flows.push_back(storage.back().get());
  }

  AllocateFromScratch(fluid_flows, network, AllocationDiscipline::kWfqSlQueues);
  PacketSimConfig config;
  config.horizon_seconds = 1.0;
  config.buffer_packets = 24;
  const PacketSimResult packets = RunPacketSim(&network, packet_flows, config);

  TablePrinter table({"Flow", "Path hops", "VL", "Fluid Gb/s", "Packet Gb/s", "Delta %"});
  for (size_t f = 0; f < fluid_flows.size(); ++f) {
    const double fluid = fluid_flows[f]->rate / 1e9;
    const double packet = packets.delivered_bits[f] / config.horizon_seconds / 1e9;
    table.AddRow({std::to_string(f), std::to_string(fluid_flows[f]->path->size()),
                  std::to_string(packet_flows[f].sl), Fmt(fluid, 3), Fmt(packet, 3),
                  Fmt(fluid > 0 ? std::fabs(fluid - packet) / fluid * 100 : 0, 1)});
  }
  table.Print(std::cout);
}

void Run() {
  const uint64_t seed = EnvSeed();
  PrintBanner(std::cout, "Validation",
              "Fluid-model cross-checks against packet-granularity references.", seed);
  SinglePortStudy();
  MultiHopStudy(seed);
}

}  // namespace
}  // namespace saba

int main() {
  saba::Run();
  return 0;
}
