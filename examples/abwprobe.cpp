// abwprobe — a command-line avail-bw measurement tool over a simulated
// path.  The shape a downstream user would actually run:
//
//   abwprobe --tool=pathload --model=pareto --capacity=50M --cross=25M
//   abwprobe --tool=spruce --hops=3 --seed=7
//   abwprobe --list
//
// Live measurement (against a running abwd daemon, examples/abwd.cpp):
//
//   abwprobe --transport=udp --peer=127.0.0.1:9877 --tool=spruce --capacity=50M
//
// Flags (all optional):
//   --tool=NAME        estimator (default pathload); --list prints all
//   --model=MODEL      cbr | poisson | pareto        (default poisson)
//   --capacity=RATE    per-hop capacity, e.g. 50M    (default 50M)
//   --cross=RATE       mean cross rate per tight hop (default 25M)
//   --hops=N           tight links, one-hop cross    (default 1)
//   --seed=N           RNG seed                      (default 1)
//   --loss=P           random per-hop loss prob      (default 0)
//   --skew-ppm=D       receiver clock drift in ppm   (default 0)
//   --trace=FILE       write a JSONL event trace (obs/) to FILE
//   --metrics=FILE     write a JSON metrics snapshot (obs/) to FILE
//   --transport=KIND   sim (default) | udp
//   --peer=HOST:PORT   abwd address (udp transport)
//   --budget=N         probe-packet budget (0 = unlimited)
//   --deadline=S       measurement deadline in seconds (0 = none)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "net/udp_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace abw;

namespace {

// Parses "50M", "1.5G", "2500k", or plain bits/s.
double parse_rate(const std::string& v) {
  char suffix = v.empty() ? '\0' : v.back();
  double mult = 1.0;
  std::string num = v;
  if (suffix == 'k' || suffix == 'K') mult = 1e3;
  if (suffix == 'm' || suffix == 'M') mult = 1e6;
  if (suffix == 'g' || suffix == 'G') mult = 1e9;
  if (mult != 1.0) num = v.substr(0, v.size() - 1);
  return std::stod(num) * mult;
}

struct Args {
  std::string tool = "pathload";
  std::string model = "poisson";
  double capacity = 50e6;
  double cross = 25e6;
  std::size_t hops = 1;
  std::uint64_t seed = 1;
  double loss = 0.0;
  double skew_ppm = 0.0;
  std::string trace_path;
  std::string metrics_path;
  std::string transport = "sim";
  std::string peer;
  std::uint64_t budget = 0;
  double deadline_s = 0.0;
  bool list = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto eat = [&](const char* key, std::string& out) {
      std::string prefix = std::string(key) + "=";
      if (arg.rfind(prefix, 0) == 0) {
        out = arg.substr(prefix.size());
        return true;
      }
      return false;
    };
    std::string v;
    if (arg == "--list") a.list = true;
    else if (eat("--tool", v)) a.tool = v;
    else if (eat("--model", v)) a.model = v;
    else if (eat("--capacity", v)) a.capacity = parse_rate(v);
    else if (eat("--cross", v)) a.cross = parse_rate(v);
    else if (eat("--hops", v)) a.hops = std::stoul(v);
    else if (eat("--seed", v)) a.seed = std::stoull(v);
    else if (eat("--loss", v)) a.loss = std::stod(v);
    else if (eat("--skew-ppm", v)) a.skew_ppm = std::stod(v);
    else if (eat("--trace", v)) a.trace_path = v;
    else if (eat("--metrics", v)) a.metrics_path = v;
    else if (eat("--transport", v)) a.transport = v;
    else if (eat("--peer", v)) a.peer = v;
    else if (eat("--budget", v)) a.budget = std::stoull(v);
    else if (eat("--deadline", v)) a.deadline_s = std::stod(v);
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

core::CrossModel parse_model(const std::string& m) {
  if (m == "cbr") return core::CrossModel::kCbr;
  if (m == "poisson") return core::CrossModel::kPoisson;
  if (m == "pareto") return core::CrossModel::kParetoOnOff;
  throw std::invalid_argument("unknown model '" + m + "' (cbr|poisson|pareto)");
}

// Live measurement: probe a real abwd daemon over UDP instead of a
// simulated path.  No ground truth here — that is the whole point of the
// simulator — only the tool's estimate and its cost.
int run_live(const Args& args) {
  auto colon = args.peer.rfind(':');
  if (colon == std::string::npos)
    throw std::invalid_argument("--peer must be HOST:PORT");
  net::UdpTransportConfig tcfg;
  tcfg.host = args.peer.substr(0, colon);
  tcfg.port = static_cast<std::uint16_t>(std::stoul(args.peer.substr(colon + 1)));
  tcfg.advertise_budget_packets = args.budget;
  tcfg.advertise_deadline = sim::from_seconds(args.deadline_s);
  net::UdpTransport transport(tcfg);

  std::unique_ptr<obs::JsonlTraceSink> trace;
  if (!args.trace_path.empty())
    trace = std::make_unique<obs::JsonlTraceSink>(args.trace_path);
  obs::MetricsRegistry metrics;

  core::ToolOptions opts;
  opts.tight_capacity_bps = args.capacity;
  opts.min_rate_bps = 0.04 * args.capacity;
  opts.max_rate_bps = 0.98 * args.capacity;
  opts.limits.max_probe_packets = args.budget;
  opts.limits.deadline = sim::from_seconds(args.deadline_s);
  opts.trace = trace.get();
  if (!args.metrics_path.empty()) opts.metrics = &metrics;
  stats::Rng rng(args.seed ^ 0xabcdef);
  auto tool = core::make_estimator(args.tool, opts, rng);

  std::printf("probing %s over udp (session budget=%llu deadline=%.1fs)\n",
              args.peer.c_str(), static_cast<unsigned long long>(args.budget),
              args.deadline_s);
  est::Estimate e = tool->estimate(transport);
  if (!transport.connected())
    std::fprintf(stderr, "warning: daemon at %s never answered\n",
                 args.peer.c_str());

  if (trace) trace->flush();
  if (!args.metrics_path.empty()) {
    std::ofstream out(args.metrics_path);
    if (!out) throw std::runtime_error("cannot open " + args.metrics_path);
    metrics.write_json(out, /*include_timers=*/true);
  }

  if (!e.valid) {
    std::printf("%s: estimation failed: %s\n", args.tool.c_str(),
                e.detail.c_str());
    return 1;
  }
  if (e.low_bps == e.high_bps) {
    std::printf("%s estimate: %s\n", args.tool.c_str(),
                core::mbps(e.point_bps()).c_str());
  } else {
    std::printf("%s estimate: [%s, %s]\n", args.tool.c_str(),
                core::mbps(e.low_bps).c_str(), core::mbps(e.high_bps).c_str());
  }
  std::printf("overhead: %llu packets (%llu bytes), latency %.2f s\n",
              static_cast<unsigned long long>(e.cost.packets),
              static_cast<unsigned long long>(e.cost.bytes),
              sim::to_seconds(e.cost.elapsed()));
  if (!e.detail.empty()) std::printf("detail: %s\n", e.detail.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return 2;

  if (args.list) {
    // Registry v2: the structured table, not just names.
    std::printf("available tools:\n");
    std::printf("  %-10s %-10s %-10s %-8s %s\n", "name", "class", "needs Ct",
                "pkt size", "repetitions");
    for (const auto& t : core::available_tool_info()) {
      std::string reps = t.default_repetitions == 0
                             ? std::string("-")
                             : std::to_string(t.default_repetitions);
      std::printf("  %-10s %-10s %-10s %-8u %s\n", t.name.c_str(),
                  t.probing_class == est::ProbingClass::kDirect ? "direct"
                                                                : "iterative",
                  t.requires_tight_capacity ? "yes" : "no",
                  t.default_packet_size, reps.c_str());
    }
    return 0;
  }

  if (args.transport == "udp") {
    try {
      return run_live(args);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "error: %s\n", ex.what());
      return 2;
    }
  }
  if (args.transport != "sim") {
    std::fprintf(stderr, "unknown transport '%s' (sim|udp)\n",
                 args.transport.c_str());
    return 2;
  }

  try {
    core::Scenario sc = [&] {
      if (args.hops <= 1) {
        core::SingleHopConfig cfg;
        cfg.capacity_bps = args.capacity;
        cfg.cross_rate_bps = args.cross;
        cfg.model = parse_model(args.model);
        cfg.seed = args.seed;
        cfg.random_loss_prob = args.loss;
        return core::Scenario::single_hop(cfg);
      }
      core::MultiHopConfig cfg;
      cfg.hop_count = args.hops;
      cfg.loaded_hops.clear();
      for (std::size_t h = 0; h < args.hops; ++h) cfg.loaded_hops.push_back(h);
      cfg.capacity_bps = args.capacity;
      cfg.cross_rate_bps = args.cross;
      cfg.model = parse_model(args.model);
      cfg.seed = args.seed;
      cfg.random_loss_prob = args.loss;
      return core::Scenario::multi_hop(cfg);
    }();

    if (args.skew_ppm != 0.0) {
      probe::ReceiverClock clock;
      clock.drift_ppm = args.skew_ppm;
      sc.transport().set_receiver_clock(clock);
    }

    // Observability: the trace sink sees every layer (links, session,
    // tool decisions); metrics collect tool counters plus a final
    // scenario snapshot.  Both off (null) unless the flags are given.
    std::unique_ptr<obs::JsonlTraceSink> trace;
    if (!args.trace_path.empty()) {
      trace = std::make_unique<obs::JsonlTraceSink>(args.trace_path);
      sc.set_trace(trace.get());
    }
    obs::MetricsRegistry metrics;

    core::ToolOptions opts;
    opts.tight_capacity_bps = args.capacity;
    opts.min_rate_bps = 0.04 * args.capacity;
    opts.max_rate_bps = 0.98 * args.capacity;
    opts.trace = trace.get();
    if (!args.metrics_path.empty()) {
      opts.metrics = &metrics;
      sc.simulator().set_metrics(&metrics);
    }
    stats::Rng rng(args.seed ^ 0xabcdef);
    auto tool = core::make_estimator(args.tool, opts, rng);

    std::printf("path: %zu hop(s) x %s, %s cross %s  =>  nominal A = %s\n",
                std::max<std::size_t>(args.hops, 1),
                core::mbps(args.capacity).c_str(), args.model.c_str(),
                core::mbps(args.cross).c_str(),
                core::mbps(sc.nominal_avail_bw()).c_str());

    est::Estimate e = tool->estimate(sc.transport());

    if (trace) {
      trace->flush();
      std::printf("trace: %llu events -> %s\n",
                  static_cast<unsigned long long>(trace->lines()),
                  args.trace_path.c_str());
    }
    if (!args.metrics_path.empty()) {
      sc.snapshot_metrics(metrics);
      std::ofstream out(args.metrics_path);
      if (!out) throw std::runtime_error("cannot open " + args.metrics_path);
      metrics.write_json(out, /*include_timers=*/true);
      std::printf("metrics snapshot -> %s\n", args.metrics_path.c_str());
    }

    if (!e.valid) {
      std::printf("%s: estimation failed: %s\n", args.tool.c_str(),
                  e.detail.c_str());
      return 1;
    }
    double truth = sc.ground_truth(e.cost.first_send, e.cost.last_activity);
    if (e.low_bps == e.high_bps) {
      std::printf("%s estimate: %s\n", args.tool.c_str(),
                  core::mbps(e.point_bps()).c_str());
    } else {
      std::printf("%s estimate: [%s, %s]\n", args.tool.c_str(),
                  core::mbps(e.low_bps).c_str(), core::mbps(e.high_bps).c_str());
    }
    std::printf("ground truth during measurement: %s\n"
                "overhead: %llu packets (%llu bytes), latency %.2f s\n",
                core::mbps(truth).c_str(),
                static_cast<unsigned long long>(e.cost.packets),
                static_cast<unsigned long long>(e.cost.bytes),
                sim::to_seconds(e.cost.elapsed()));
    if (!e.detail.empty()) std::printf("detail: %s\n", e.detail.c_str());
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 2;
  }
  return 0;
}
