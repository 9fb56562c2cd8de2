// Figure 7 — "TCP throughput compared to avail-bw."
//
// Paper setup: avail-bw 15 Mb/s.  Measure the throughput of a bulk TCP
// transfer as a function of the receiver's advertised window Wr for three
// cross-traffic types:
//   1. UDP sources with Pareto interarrivals (unresponsive),
//   2. a few persistent TCP transfers limited by their advertised windows,
//   3. an aggregate of many short TCP transfers.
//
// Expected shape: the difference between TCP throughput and the avail-bw
// can be positive or negative and depends strongly on Wr and on the
// congestion responsiveness of the cross traffic — bulk TCP throughput is
// NOT a validation target for avail-bw estimators.
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "tcp/flows.hpp"
#include "tcp/tcp.hpp"
#include "traffic/pareto_gaps.hpp"

using namespace abw;

namespace {

constexpr double kCapacity = 50e6;
constexpr double kCrossRate = 35e6;  // leaves A = 15 Mb/s
constexpr sim::SimTime kMeasure = 15 * sim::kSecond;

enum class CrossKind { kParetoUdp, kPersistentTcp, kShortTcp };

const char* name(CrossKind k) {
  switch (k) {
    case CrossKind::kParetoUdp: return "Pareto-interarrival UDP";
    case CrossKind::kPersistentTcp: return "window-limited persistent TCP";
    case CrossKind::kShortTcp: return "many short TCP flows";
  }
  return "?";
}

struct CaseResult {
  double avail_bw;                 // ground truth without the measured flow
  std::vector<double> throughput;  // one per Wr value
};

// Builds the scenario with the given cross traffic; if wr != 0 also runs
// the measured bulk TCP flow with that receiver window.  Returns the
// cross-only ground-truth avail-bw and (if measured) the flow throughput.
std::pair<double, double> run_once(CrossKind kind, std::uint32_t wr,
                                   std::uint64_t seed) {
  std::vector<sim::LinkConfig> links(1);
  links[0].capacity_bps = kCapacity;
  links[0].propagation_delay = 5 * sim::kMillisecond;
  links[0].queue_limit_bytes = 192 * 1500;
  auto sc = core::Scenario::custom(links, seed);
  auto& simu = sc.simulator();

  tcp::TcpReceiverHub hub;
  sc.session().demux().register_handler(sim::PacketType::kTcpData, &hub);
  stats::Rng rng(seed * 31 + 7);

  // Cross traffic.
  std::unique_ptr<traffic::ParetoGapGenerator> udp;
  std::unique_ptr<tcp::PersistentFlowSet> persistent;
  std::unique_ptr<tcp::ShortFlowGenerator> shorts;
  switch (kind) {
    case CrossKind::kParetoUdp:
      udp = std::make_unique<traffic::ParetoGapGenerator>(
          simu, sc.path(), 0, false, 1000, rng.fork(), kCrossRate, 1500, 1.9);
      udp->start(0, 120 * sim::kSecond);
      break;
    case CrossKind::kPersistentTcp: {
      // 6 flows, each capped by a small advertised window so together
      // they offer ~35 Mb/s on the otherwise idle link.
      tcp::TcpConfig cfg;
      cfg.receiver_window = 6;
      cfg.reverse_delay = 5 * sim::kMillisecond;
      persistent = std::make_unique<tcp::PersistentFlowSet>(
          simu, sc.path(), hub, 2000, 6, cfg);
      auto prng = rng.fork();
      persistent->start(0, sim::kSecond, prng);
      break;
    }
    case CrossKind::kShortTcp: {
      tcp::ShortFlowConfig cfg;
      cfg.mean_flow_bytes = 50e3;
      cfg.flow_arrival_rate = kCrossRate / (cfg.mean_flow_bytes * 8.0);
      cfg.tcp.reverse_delay = 5 * sim::kMillisecond;
      shorts = std::make_unique<tcp::ShortFlowGenerator>(
          simu, sc.path(), hub, 3000, cfg, rng.fork());
      shorts->start(0, 120 * sim::kSecond);
      break;
    }
  }

  simu.run_until(3 * sim::kSecond);  // warm up the cross traffic

  std::unique_ptr<tcp::TcpConnection> bulk;
  if (wr != 0) {
    tcp::TcpConfig cfg;
    cfg.receiver_window = wr;
    cfg.reverse_delay = 5 * sim::kMillisecond;
    cfg.measurement_flow = true;  // excluded from cross-traffic ground truth
    bulk = std::make_unique<tcp::TcpConnection>(simu, sc.path(), hub, 1, cfg);
    bulk->start(simu.now());
  }

  sim::SimTime t0 = simu.now();
  simu.run_until(t0 + kMeasure);

  double a = sc.path().cross_avail_bw(t0, simu.now());
  double tput = bulk ? bulk->throughput_bps(simu.now()) : 0.0;
  return {a, tput};
}

}  // namespace

int main() {
  core::print_header(std::cout, "Figure 7: bulk TCP throughput vs avail-bw",
                     "Jain & Dovrolis IMC'04, Fig. 7");
  std::printf("workload: single hop 50 Mbps, cross traffic ~35 Mbps => "
              "A ~ 15 Mbps; bulk TCP measured for 15 s per point\n\n");

  const std::uint32_t windows[] = {4, 8, 16, 32, 64, 128, 256, 512};
  const CrossKind kinds[] = {CrossKind::kParetoUdp, CrossKind::kPersistentTcp,
                             CrossKind::kShortTcp};

  core::Table table({"Wr (pkts)", "Pareto UDP", "persistent TCP", "short TCPs"});
  std::vector<CaseResult> results(3);
  for (int ki = 0; ki < 3; ++ki)
    results[ki].avail_bw = run_once(kinds[ki], 0, 70 + ki).first;

  for (std::uint32_t wr : windows) {
    std::vector<std::string> row = {std::to_string(wr)};
    for (int ki = 0; ki < 3; ++ki) {
      auto [a, tput] = run_once(kinds[ki], wr, 70 + ki);
      (void)a;
      results[ki].throughput.push_back(tput);
      row.push_back(core::mbps(tput));
    }
    table.row(row);
  }
  table.print(std::cout);

  std::printf("\ncross-only avail-bw (ground truth, no measured flow):\n");
  for (int ki = 0; ki < 3; ++ki)
    std::printf("  %-32s A = %s\n", name(kinds[ki]),
                core::mbps(results[ki].avail_bw).c_str());

  // Paper's claim: the TCP-vs-avail-bw difference can be positive or
  // negative, depending on Wr and cross-traffic responsiveness.
  bool saw_below = false, saw_above = false, window_matters = false;
  for (int ki = 0; ki < 3; ++ki) {
    double a = results[ki].avail_bw;
    for (double t : results[ki].throughput) {
      if (t < 0.8 * a) saw_below = true;
      if (t > 1.2 * a) saw_above = true;
    }
    if (results[ki].throughput.back() > 1.5 * results[ki].throughput.front())
      window_matters = true;
  }
  const bool match = core::print_check(
      std::cout,
      "the difference between avail-bw and TCP throughput can be positive "
      "or negative, and depends strongly on the congestion responsiveness "
      "of the cross traffic and on Wr",
      std::string("observed throughputs ") +
          (saw_below ? "well below" : "never below") + " and " +
          (saw_above ? "well above" : "never above") +
          " the avail-bw across the Wr sweep",
      saw_below && saw_above && window_matters);
  std::printf("\nconclusion: do not validate avail-bw estimators against "
              "bulk TCP throughput.\n");
  return match ? 0 : 1;
}
