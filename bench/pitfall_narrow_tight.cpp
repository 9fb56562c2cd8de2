// Pitfall bench — "Estimating the tight link capacity with end-to-end
// capacity estimation tools."
//
// Topology: hop 0 is a loaded 100 Mb/s link (the TIGHT link: A = 20),
// hop 1 is an idle 40 Mb/s link (the NARROW link: A = 40).  A packet-pair
// capacity tool reports the narrow capacity Cn = 40, not the tight
// capacity Ct = 100.  Feeding Cn into the direct-probing equation (Eq. 9)
// or into Spruce produces systematically wrong avail-bw estimates.
#include <cstdio>
#include <iostream>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "est/capacity.hpp"
#include "est/direct.hpp"
#include "est/spruce.hpp"
#include "traffic/poisson.hpp"

using namespace abw;

int main() {
  core::print_header(std::cout, "Pitfall: narrow-link capacity fed to direct probing",
                     "Jain & Dovrolis IMC'04, fifth misconception");
  std::printf("topology: hop0 = 100 Mbps with 80 Mbps Poisson cross (TIGHT, "
              "A=20);\n          hop1 = 40 Mbps idle (NARROW, A=40)\n\n");

  std::vector<sim::LinkConfig> links(2);
  links[0].capacity_bps = 100e6;
  links[1].capacity_bps = 40e6;
  links[0].propagation_delay = links[1].propagation_delay = sim::kMillisecond;
  auto sc = core::Scenario::custom(links, 55);
  traffic::PoissonGenerator cross(sc.simulator(), sc.path(), 0, /*one_hop=*/true,
                                  1, sc.rng().fork(), 80e6,
                                  traffic::SizeDistribution::fixed(1500));
  cross.start(0, 600 * sim::kSecond);
  sc.simulator().run_until(2 * sim::kSecond);

  // Step 1: what a capacity tool reports.
  est::CapacityConfig cc;
  cc.pair_count = 200;
  est::CapacityEstimator cap(cc, sc.rng().fork());
  double cn = cap.estimate_capacity(sc.transport());
  std::printf("packet-pair capacity estimate: %s  (narrow link is 40, tight "
              "link is 100)\n\n",
              core::mbps(cn).c_str());

  // Step 2: direct probing and Spruce with that (wrong) capacity vs the
  // true tight-link capacity.
  auto direct_with = [&](double ct) {
    est::DirectConfig dc;
    dc.tight_capacity_bps = ct;
    dc.input_rate_bps = 32e6;  // above true A=20, below narrow capacity
    dc.stream_count = 40;
    est::DirectProber p(dc);
    auto e = p.estimate(sc.transport());
    return e.valid ? e.point_bps() : -1.0;
  };
  auto spruce_with = [&](double ct) {
    est::SpruceConfig spc;
    spc.tight_capacity_bps = ct;
    spc.pair_count = 200;
    est::Spruce sp(spc, sc.rng().fork());
    auto e = sp.estimate(sc.transport());
    return e.valid ? e.point_bps() : -1.0;
  };

  double truth = 20e6;
  double d_cn = direct_with(cn), d_ct = direct_with(100e6);
  double s_cn = spruce_with(cn), s_ct = spruce_with(100e6);

  core::Table table({"tool", "capacity input", "estimate", "error vs A=20"});
  auto err = [&](double v) { return core::pct((v - truth) / truth); };
  table.row({"direct", "Cn (capacity tool)", core::mbps(d_cn), err(d_cn)});
  table.row({"direct", "Ct (true tight)", core::mbps(d_ct), err(d_ct)});
  table.row({"spruce", "Cn (capacity tool)", core::mbps(s_cn), err(s_cn)});
  table.row({"spruce", "Ct (true tight)", core::mbps(s_ct), err(s_ct)});
  table.print(std::cout);

  std::printf(
      "\nnote the spruce/Ct row: Spruce cannot exploit the true tight-link\n"
      "capacity here at all — its pairs are launched at Ct = 100 Mbps but\n"
      "the 40 Mbps narrow link re-spaces them before they can measure\n"
      "anything, driving the gap samples out of range.  Spruce implicitly\n"
      "assumes the narrow link IS the tight link; when they differ the\n"
      "pitfall is not just a wrong parameter but a broken measurement.\n");

  bool cap_is_narrow = std::abs(cn - 40e6) < 6e6;
  bool direct_wrong_much_worse =
      std::abs(d_cn - truth) > 2 * std::abs(d_ct - truth);
  bool spruce_biased_with_cn = std::abs(s_cn - truth) > 0.15 * truth;
  bool spruce_broken_with_ct = std::abs(s_ct - truth) > 0.3 * truth;
  core::print_check(
      std::cout,
      "capacity tools estimate the narrow link, which can differ from the "
      "tight link; direct probing then inherits the error",
      "capacity tool returned ~Cn; direct probing was far more accurate "
      "with the true Ct; Spruce was biased with Cn and outright broken "
      "with Ct (narrow!=tight violates its model)",
      cap_is_narrow && direct_wrong_much_worse && spruce_biased_with_cn &&
          spruce_broken_with_ct);
  return 0;
}
