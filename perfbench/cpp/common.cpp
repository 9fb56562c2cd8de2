#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.count = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  if (v.size() <= kTailBeyond) {
    t.percentile = 100.0;
    t.value = v.back();
    return t;
  }
  std::size_t k = v.size() - 1 - kTailBeyond;
  t.percentile = 100.0 * static_cast<double>(k + 1) /
                 static_cast<double>(v.size());
  t.value = v[k];
  return t;
}

double stream_overhead_ms(double send_wall_s, abw::sim::SimTime lead_in,
                          const abw::probe::StreamSpec& spec) {
  return (send_wall_s - abw::sim::to_seconds(lead_in) -
          abw::sim::to_seconds(spec.span())) *
         1e3;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

Steady steady(const Pass& p) {
  std::vector<double> rates, p50s, lat;
  double chunk_start = p.start_s;
  double ops = 0.0;
  std::size_t next_op = 0;
  const std::size_t rounds = p.round_end_s.size();
  for (std::size_t r = 0; r < rounds; ++r) {
    ops += p.round_ops[r];
    const double end = p.round_end_s[r];
    const bool only_chunk = r + 1 == rounds && rates.empty();
    if (end - chunk_start < kChunkS && !only_chunk) continue;
    lat.clear();
    while (next_op < p.op_end_s.size() && p.op_end_s[next_op] <= end)
      lat.push_back(p.op_ms[next_op++]);
    rates.push_back(ops / (end - chunk_start));
    if (!lat.empty()) p50s.push_back(median(lat));
    chunk_start = end;
    ops = 0.0;
  }
  return {median(rates), median(p50s), rates.size()};
}

void report_end_to_end(Outcome& out, const Pass& p, double setup_s,
                       const std::string& rate_name, const std::string& op_name) {
  const Steady st = steady(p);
  const Tail tl = tail(p.op_ms);
  out.end_to_end["setup_s"] = {setup_s, "s"};
  out.end_to_end["ops_per_s"] = {st.ops_per_s, "1/s"};
  out.note(rate_name, st.ops_per_s, "1/s");
  out.note(op_name + "_p50", st.op_ms_p50, "ms");
  out.note(op_name + "_tail", tl.value, "ms");
  out.note(op_name + "_tail.percentile", tl.percentile, "%");
  out.note(op_name + "_tail.samples", static_cast<double>(tl.count), "count");
  out.note("chunks", static_cast<double>(st.chunks), "count");
  out.note("failed_frac", out.tally.failed_frac(), "ratio");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double thread_cpu_s(long tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the whole line.
  std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::vector<long> task_ids() {
  std::vector<long> ids;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task"))
    ids.push_back(std::stol(e.path().filename().string()));
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace perfbench
