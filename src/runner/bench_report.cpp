#include "runner/bench_report.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace abw::runner {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::string to_json(const BatchTiming& t) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "  {\"bench\": \"%s\", \"tasks\": %zu, \"jobs\": %zu, "
                "\"serial_s\": %.6f, \"parallel_s\": %.6f, \"speedup\": %.3f}",
                t.bench.c_str(), t.tasks, t.jobs, t.serial_s, t.parallel_s,
                t.speedup());
  return buf;
}

}  // namespace

void append_bench_batch(const BatchTiming& t, const std::string& path) {
  // Read any existing array so entries accumulate across bench binaries.
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      existing = ss.str();
    }
  }
  std::string body;
  auto close_bracket = existing.rfind(']');
  if (close_bracket != std::string::npos) {
    body = existing.substr(0, close_bracket);
    // Trim trailing whitespace so we can splice ", {...}\n]" cleanly.
    while (!body.empty() && (body.back() == '\n' || body.back() == ' '))
      body.pop_back();
    bool empty_array = body.empty() || body.back() == '[';
    body += empty_array ? "\n" : ",\n";
  } else {
    body = "[\n";
  }
  std::ofstream out(path, std::ios::trunc);
  out << body << to_json(t) << "\n]\n";
}

void print_batch_timing(const BatchTiming& t) {
  std::printf("[batch] %s: %zu tasks, serial %.2f s, parallel(%zu) %.2f s, "
              "speedup %.2fx  -> BENCH_batch.json\n",
              t.bench.c_str(), t.tasks, t.serial_s, t.jobs, t.parallel_s,
              t.speedup());
}

}  // namespace abw::runner
