// perfbench — the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload, prints the host, every metric by name and unit, and
// as its last line one JSON object {"correct","attempted","failed",
// "metrics"}: the end-to-end metrics untraced (--trace 0), the per-layer
// metrics traced (--trace 1).  Exits 1 when a correctness check fails,
// 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/registry.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

using MetricList = std::vector<std::pair<std::string, std::string>>;

const MetricList& end_to_end_metrics() {
  static const MetricList m = {{"setup_s", "s"},
                               {"peak_rss_mb", "MiB"},
                               {"ops_per_s", "1/s"}};
  return m;
}

// Every workload reports every per-layer metric; a layer the workload
// never enters reads 0 (the prediction for it is "no change").
const MetricList& per_layer_metrics() {
  static const MetricList m = [] {
    MetricList l = {{"core.scenario_build_s", "s"},
                    {"core.mesh_build_s", "s"},
                    {"mesh.select_ms", "ms"},
                    {"probe.send_stream_s", "s"},
                    {"probe.send_stream_us_p50", "us"},
                    {"probe.streams", "count"},
                    {"probe.packets", "count"},
                    {"sim.wait_s", "s"},
                    {"sim.events", "count"},
                    {"sim.events_per_s", "1/s"},
                    {"sim.peak_events", "count"},
                    {"sim.link_packets", "count"},
                    {"sim.link_drops", "count"},
                    {"sim.drain_s", "s"},
                    {"sim.fluid_absorb_s", "s"},
                    {"sim.fluid_absorb_calls", "count"},
                    {"est.self_s", "s"}};
    for (const std::string& t : abw::core::available_tools())
      l.push_back({"est." + t + ".ms_p50", "ms"});
    for (const std::string& t : abw::core::available_tools())
      if (t != "bfind") l.push_back({"est." + t + ".self_s", "s"});
    const MetricList tail = {{"net.first_stream_overhead_ms_p50", "ms"},
                             {"net.daemon.cpu_s", "s"},
                             {"net.daemon.cpu_us_per_datagram", "us"},
                             {"net.daemon.datagrams_in", "count"},
                             {"net.daemon.probes_in", "count"},
                             {"net.daemon.reports_sent", "count"},
                             {"net.daemon.malformed", "count"},
                             {"net.daemon.sessions_rejected", "count"},
                             {"net.daemon.aborts_sent", "count"},
                             {"mesh.measure_ms_p50", "ms"},
                             {"mesh.infer_ms", "ms"},
                             {"runner.task_s_sum", "s"},
                             {"runner.parallel_eff", "ratio"},
                             {"runner.jobs", "count"},
                             {"obs.trace_overhead_frac", "ratio"}};
    l.insert(l.end(), tail.begin(), tail.end());
    return l;
  }();
  return m;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<tools_hybrid|multihop_packet|live_loopback|mesh_parking_lot> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") cfg.workload = value;
      else if (flag == "--seed") cfg.seed = std::stoull(value);
      else if (flag == "--seconds") cfg.seconds = std::stod(value);
      else if (flag == "--trace") cfg.trace = std::stoi(value) != 0;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 == 0 || !(cfg.seconds > 0.0)) return usage();

  Outcome (*run)(const RunConfig&) = nullptr;
  if (cfg.workload == "tools_hybrid") run = run_tools_hybrid;
  else if (cfg.workload == "multihop_packet") run = run_multihop_packet;
  else if (cfg.workload == "live_loopback") run = run_live_loopback;
  else if (cfg.workload == "mesh_parking_lot") run = run_mesh_parking_lot;
  else return usage();

  std::printf(
      "host: {\"nproc\": %u, \"cpu\": \"%s\", \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"live_traffic\": \"loopback 127.0.0.1, not a "
      "real link\"}\n",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  std::printf("run: workload %s, seed %llu, %g s, trace %d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);

  Outcome out = run(cfg);
  out.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MiB"};

  for (const auto& [name, m] : out.notes)
    std::printf("  %-34s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());

  const MetricList& list = cfg.trace ? per_layer_metrics() : end_to_end_metrics();
  const std::map<std::string, Metric>& have =
      cfg.trace ? out.per_layer : out.end_to_end;
  for (const auto& [name, m] : have) {
    bool known = false;
    for (const auto& [n, unit] : list) known = known || (n == name && unit == m.unit);
    out.check(known, "metric " + name + " [" + m.unit + "] is not in the metric list");
  }

  std::string metrics;
  for (const auto& [name, unit] : list) {
    auto it = have.find(name);
    double v = it == have.end() ? 0.0 : it->second.value;
    out.check(std::isfinite(v), "metric " + name + " is not finite");
    if (!std::isfinite(v)) v = 0.0;
    std::printf("  %-34s %.6g %s\n", name.c_str(), v, unit.c_str());
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               unit + "\"}";
  }
  for (const std::string& p : out.problems)
    std::printf("CHECK FAILED: %s\n", p.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      out.correct ? "true" : "false",
      static_cast<unsigned long long>(out.tally.attempted),
      static_cast<unsigned long long>(out.tally.failed), metrics.c_str());
  return out.correct ? 0 : 1;
}
