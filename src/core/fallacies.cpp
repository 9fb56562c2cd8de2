#include "core/fallacies.hpp"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "est/capacity.hpp"
#include "est/direct.hpp"
#include "est/pathload.hpp"
#include "stats/moments.hpp"
#include "stats/trend.hpp"
#include "tcp/tcp.hpp"
#include "traffic/poisson.hpp"
#include "trace/availbw_process.hpp"
#include "trace/synthetic_trace.hpp"

namespace abw::core {

namespace {

std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

// Spread (stddev) of repeated k-sample Poisson sample means of A_tau,
// relative to the trace's long-run mean avail-bw.
double sample_mean_spread(const trace::AvailBwProcess& proc, std::size_t k,
                          sim::SimTime tau, std::size_t repeats,
                          stats::Rng& rng) {
  stats::RunningStats means;
  for (std::size_t r = 0; r < repeats; ++r)
    means.add(stats::mean(proc.poisson_samples(k, tau, rng)));
  return means.stddev() / proc.mean_avail_bw();
}

// --- 1. Pitfall: ignoring the variability of the avail-bw process -------
FallacyResult f1(std::uint64_t seed) {
  stats::Rng rng(seed);
  trace::SyntheticTraceConfig tc;
  tc.duration = 8 * sim::kSecond;
  trace::PacketTrace tr = trace::synthesize_selfsimilar_trace(tc, rng);
  trace::AvailBwProcess proc(tr);

  double e_short = sample_mean_spread(proc, 20, sim::kMillisecond, 30, rng);
  double e_long = sample_mean_spread(proc, 20, 100 * sim::kMillisecond, 30, rng);

  FallacyResult r{1, MisconceptionKind::kPitfall, fallacy_title(1),
                  e_short > 1.3 * e_long,
                  fmt("k=20 sample-mean rel. spread: tau=1ms -> %.1f%%, "
                      "tau=100ms -> %.1f%% (variance grows at short scales)",
                      e_short * 100, e_long * 100)};
  return r;
}

// --- 2. Pitfall: probing duration IS the averaging time scale -----------
FallacyResult f2(std::uint64_t seed) {
  SingleHopConfig sc;
  sc.seed = seed;
  Scenario s = Scenario::single_hop(sc);

  auto short_s = collect_direct_samples(s, sc.capacity_bps, 40e6,
                                        25 * sim::kMillisecond, 1500, 60,
                                        20 * sim::kMillisecond);
  auto long_s = collect_direct_samples(s, sc.capacity_bps, 40e6,
                                       200 * sim::kMillisecond, 1500, 60,
                                       20 * sim::kMillisecond);
  double sd_short = stats::stddev(short_s);
  double sd_long = stats::stddev(long_s);

  return {2, MisconceptionKind::kPitfall, fallacy_title(2),
          sd_short > 1.2 * sd_long,
          fmt("direct-probing sample stddev: 25ms streams -> %.2f Mbps, "
              "200ms streams -> %.2f Mbps (duration sets the time scale)",
              sd_short / 1e6, sd_long / 1e6)};
}

// --- 3. Fallacy: faster estimation is better -----------------------------
FallacyResult f3(std::uint64_t seed) {
  SingleHopConfig sc;
  sc.seed = seed;
  Scenario s = Scenario::single_hop(sc);

  stats::RunningStats means_small, means_large;
  for (int rep = 0; rep < 12; ++rep) {
    auto a = collect_direct_samples(s, sc.capacity_bps, 40e6,
                                    50 * sim::kMillisecond, 1500, 5,
                                    10 * sim::kMillisecond);
    auto b = collect_direct_samples(s, sc.capacity_bps, 40e6,
                                    50 * sim::kMillisecond, 1500, 25,
                                    10 * sim::kMillisecond);
    means_small.add(stats::mean(a));
    means_large.add(stats::mean(b));
  }
  double spread_small = means_small.stddev();
  double spread_large = means_large.stddev();

  return {3, MisconceptionKind::kFallacy, fallacy_title(3),
          spread_small > 1.2 * spread_large,
          fmt("estimate spread with k=5 streams: %.2f Mbps vs k=25 streams: "
              "%.2f Mbps (fewer streams = faster but noisier)",
              spread_small / 1e6, spread_large / 1e6)};
}

// --- 4. Fallacy: packet pairs are as good as packet trains ---------------
FallacyResult f4(std::uint64_t seed) {
  auto pair_error = [&](std::uint32_t cross_size) {
    SingleHopConfig sc;
    sc.seed = seed + cross_size;
    sc.cross_packet_size = cross_size;
    Scenario s = Scenario::single_hop(sc);
    stats::RunningStats err;
    for (int rep = 0; rep < 10; ++rep) {
      auto samples = collect_pair_samples(s, sc.capacity_bps, 1500, 20,
                                          10 * sim::kMillisecond);
      if (samples.empty()) continue;
      err.add(std::abs(stats::mean(samples) - s.nominal_avail_bw()) /
              s.nominal_avail_bw());
    }
    return err.mean();
  };

  double err_small = pair_error(40);
  double err_large = pair_error(1500);

  return {4, MisconceptionKind::kFallacy, fallacy_title(4),
          err_large > 1.5 * err_small,
          fmt("k=20-pair estimate error: Lc=40B cross -> %.1f%%, Lc=1500B "
              "cross -> %.1f%% (discrete large packets break pairs)",
              err_small * 100, err_large * 100)};
}

// --- 5. Pitfall: capacity tools find the narrow link, not the tight link -
FallacyResult f5(std::uint64_t seed) {
  // Hop 0: 100 Mb/s with 80 Mb/s cross => TIGHT (A = 20, Ct = 100).
  // Hop 1: 40 Mb/s idle               => NARROW (A = 40, Cn = 40).
  std::vector<sim::LinkConfig> links(2);
  links[0].capacity_bps = 100e6;
  links[1].capacity_bps = 40e6;
  links[0].propagation_delay = links[1].propagation_delay = sim::kMillisecond;
  Scenario s = Scenario::custom(links, seed);

  stats::Rng grng = s.rng().fork();
  traffic::PoissonGenerator cross(s.simulator(), s.path(), 0, /*one_hop=*/true,
                                  1, std::move(grng), 80e6,
                                  traffic::SizeDistribution::fixed(1500));
  cross.start(0, 600 * sim::kSecond);
  s.simulator().run_until(2 * sim::kSecond);

  est::CapacityConfig cc;
  est::CapacityEstimator cap(cc, s.rng().fork());
  double cn = cap.estimate_capacity(s.transport());

  auto direct_with = [&](double ct) {
    est::DirectConfig dc;
    dc.tight_capacity_bps = ct;
    dc.input_rate_bps = 30e6;  // above the true A = 20 Mb/s
    dc.stream_count = 30;
    est::DirectProber p(dc);
    est::Estimate e = p.estimate(s.transport());
    return e.valid ? e.point_bps() : -1.0;
  };
  double a_wrong = direct_with(cn);     // capacity-tool value (narrow link)
  double a_right = direct_with(100e6);  // true tight-link capacity

  double truth = 20e6;
  bool cap_found_narrow = std::abs(cn - 40e6) / 40e6 < 0.15;
  bool wrong_worse = std::abs(a_wrong - truth) > 2.0 * std::abs(a_right - truth);

  return {5, MisconceptionKind::kPitfall, fallacy_title(5),
          cap_found_narrow && wrong_worse,
          fmt("capacity tool: %.1f Mbps (narrow Cn=40, tight Ct=100); direct "
              "probing says A=%.1f with Cn but A=%.1f with Ct (truth 20.0)",
              cn / 1e6, a_wrong / 1e6, a_right / 1e6)};
}

// --- 6. Pitfall: ignoring cross-traffic burstiness ------------------------
FallacyResult f6(std::uint64_t seed) {
  auto ratio_below_a = [&](CrossModel m) {
    SingleHopConfig sc;
    sc.seed = seed;
    sc.model = m;
    Scenario s = Scenario::single_hop(sc);
    RatioCurveConfig rc;
    rc.rates_bps = {20e6};  // Ri = 20 < A = 25
    rc.streams_per_rate = 60;
    return measure_ratio_curve(s, rc).front().mean_ratio;
  };

  double cbr = ratio_below_a(CrossModel::kCbr);
  double pareto = ratio_below_a(CrossModel::kParetoOnOff);

  return {6, MisconceptionKind::kPitfall, fallacy_title(6),
          cbr > 0.995 && pareto < 0.995,
          fmt("mean Ro/Ri at Ri=20 < A=25 Mbps: CBR %.4f vs Pareto ON-OFF "
              "%.4f (burstiness drops Ro below Ri before A)",
              cbr, pareto)};
}

// --- 7. Pitfall: ignoring multiple bottlenecks ----------------------------
FallacyResult f7(std::uint64_t seed) {
  auto ratio_at_a = [&](std::size_t tight_links) {
    MultiHopConfig mc;
    mc.seed = seed;
    mc.hop_count = tight_links;
    mc.loaded_hops.clear();
    for (std::size_t h = 0; h < tight_links; ++h) mc.loaded_hops.push_back(h);
    Scenario s = Scenario::multi_hop(mc);
    RatioCurveConfig rc;
    rc.rates_bps = {25e6};  // Ri = A
    rc.streams_per_rate = 60;
    return measure_ratio_curve(s, rc).front().mean_ratio;
  };

  double one = ratio_at_a(1);
  double five = ratio_at_a(5);

  return {7, MisconceptionKind::kPitfall, fallacy_title(7),
          five < one - 0.01,
          fmt("mean Ro/Ri at Ri=A: 1 tight link %.4f vs 5 tight links %.4f "
              "(more tight links -> lower output rate at the same Ri)",
              one, five)};
}

// --- 8. Fallacy: increasing OWDs is equivalent to Ro < Ri -----------------
FallacyResult f8(std::uint64_t seed) {
  SingleHopConfig sc;
  sc.seed = seed;
  sc.model = CrossModel::kParetoOnOff;
  Scenario s = Scenario::single_hop(sc);

  // Probe below the avail-bw; bursts will occasionally depress Ro.
  int contradictions = 0, streams = 0;
  std::string example;
  for (int i = 0; i < 150 && contradictions == 0; ++i) {
    probe::StreamResult res = s.transport().send_stream(
        probe::StreamSpec::periodic(19e6, 1500, 160));
    if (!res.complete()) continue;
    ++streams;
    double ratio = res.rate_ratio();
    stats::Trend t = stats::combined_trend(res.owds_seconds());
    if (ratio < 0.99 && t == stats::Trend::kNonIncreasing) {
      ++contradictions;
      example = fmt("stream %d: Ro/Ri=%.3f (looks congested) but OWD trend "
                    "is non-increasing (correct: Ri=19 < A=25)",
                    i, ratio);
    }
  }

  return {8, MisconceptionKind::kFallacy, fallacy_title(8),
          contradictions > 0,
          contradictions > 0
              ? example
              : fmt("no Ro<Ri / flat-OWD contradiction in %d streams", streams)};
}

// --- 9. Fallacy: iterative probing converges to a single value ------------
FallacyResult f9(std::uint64_t seed) {
  SingleHopConfig sc;
  sc.seed = seed;
  sc.model = CrossModel::kParetoOnOff;
  Scenario s = Scenario::single_hop(sc);

  est::PathloadConfig pc;
  pc.min_rate_bps = 5e6;
  pc.max_rate_bps = 50e6;
  pc.streams_per_fleet = 6;
  est::Pathload pl(pc);
  est::Estimate e = pl.estimate(s.transport());

  double width = e.high_bps - e.low_bps;
  return {9, MisconceptionKind::kFallacy, fallacy_title(9),
          e.valid && width > 0.1 * s.nominal_avail_bw(),
          fmt("pathload under bursty cross traffic: range [%.1f, %.1f] Mbps "
              "(width %.1f = %.0f%% of A) — a variation range, not a point",
              e.low_bps / 1e6, e.high_bps / 1e6, width / 1e6,
              100 * width / s.nominal_avail_bw())};
}

// --- 10. Pitfall: validating against bulk TCP throughput ------------------
FallacyResult f10(std::uint64_t seed) {
  SingleHopConfig sc;
  sc.seed = seed;
  sc.model = CrossModel::kParetoOnOff;
  sc.capacity_bps = 50e6;
  sc.cross_rate_bps = 35e6;  // A = 15 Mb/s, as in Fig. 7
  Scenario s = Scenario::single_hop(sc);

  auto tcp_throughput = [&](std::uint32_t wr) {
    tcp::TcpReceiverHub hub;
    s.transport().demux().register_handler(sim::PacketType::kTcpData, &hub);
    tcp::TcpConfig tc;
    tc.receiver_window = wr;
    // A WAN-like RTT so a small advertised window truly caps the rate:
    // Wr=8 segments over ~42 ms => ~2.2 Mb/s << A.
    tc.reverse_delay = 40 * sim::kMillisecond;
    tcp::TcpConnection conn(s.simulator(), s.path(), hub, 77, tc);
    sim::SimTime t0 = s.simulator().now();
    conn.start(t0);
    s.simulator().run_until(t0 + 8 * sim::kSecond);
    double bps = conn.throughput_bps(s.simulator().now());
    s.transport().demux().register_handler(sim::PacketType::kTcpData, nullptr);
    return bps;
  };

  double small_w = tcp_throughput(8);
  double large_w = tcp_throughput(400);
  double a = s.nominal_avail_bw();

  bool differs = std::abs(small_w - a) / a > 0.2 || std::abs(large_w - a) / a > 0.2;
  return {10, MisconceptionKind::kPitfall, fallacy_title(10), differs,
          fmt("A=15 Mbps but bulk TCP got %.1f Mbps (Wr=8 pkts) and %.1f Mbps "
              "(Wr=400 pkts) — TCP throughput is not the avail-bw",
              small_w / 1e6, large_w / 1e6)};
}

}  // namespace

const char* to_string(MisconceptionKind k) {
  return k == MisconceptionKind::kFallacy ? "Fallacy" : "Pitfall";
}

std::string fallacy_title(int id) {
  switch (id) {
    case 1: return "Ignoring the variability of the avail-bw process";
    case 2: return "Ignoring the relation between probing stream duration and averaging time scale";
    case 3: return "Faster estimation is better";
    case 4: return "Packet pairs are as good as packet trains";
    case 5: return "Estimating the tight link capacity with end-to-end capacity estimation tools";
    case 6: return "Ignoring the effects of cross traffic burstiness";
    case 7: return "Ignoring the effects of multiple bottlenecks";
    case 8: return "Increasing One-Way Delays is equivalent to Ro < Ri";
    case 9: return "Iterative probing converges to a single avail-bw estimate";
    case 10: return "Evaluating the accuracy of avail-bw estimation through comparisons with bulk TCP throughput";
    default: throw std::out_of_range("fallacy_title: id must be 1..10");
  }
}

MisconceptionKind fallacy_kind(int id) {
  switch (id) {
    case 3: case 4: case 8: case 9: return MisconceptionKind::kFallacy;
    case 1: case 2: case 5: case 6: case 7: case 10:
      return MisconceptionKind::kPitfall;
    default: throw std::out_of_range("fallacy_kind: id must be 1..10");
  }
}

FallacyResult run_fallacy(int id, std::uint64_t seed) {
  switch (id) {
    case 1: return f1(seed);
    case 2: return f2(seed);
    case 3: return f3(seed);
    case 4: return f4(seed);
    case 5: return f5(seed);
    case 6: return f6(seed);
    case 7: return f7(seed);
    case 8: return f8(seed);
    case 9: return f9(seed);
    case 10: return f10(seed);
    default: throw std::out_of_range("run_fallacy: id must be 1..10");
  }
}

}  // namespace abw::core
