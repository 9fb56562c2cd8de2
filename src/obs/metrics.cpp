#include "obs/metrics.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace abw::obs {

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), Counter{}).first;
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), Gauge{}).first;
  return it->second;
}

TimerStat& MetricsRegistry::timer(std::string_view name) {
  auto it = timers_.find(name);
  if (it == timers_.end())
    it = timers_.emplace(std::string(name), TimerStat{}).first;
  return it->second;
}

stats::Histogram& MetricsRegistry::histogram(std::string_view name, double lo,
                                             double hi, std::size_t bins) {
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), stats::Histogram(lo, hi, bins))
             .first;
  return it->second;
}

namespace {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void append_double(std::string& out, double v) {
  // NaN/Inf are not JSON; gauges legitimately carry them (e.g. NaN
  // diagnostics of invalid estimates), so serialize non-finite as null.
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  double back = 0.0;
  std::sscanf(buf, "%lf", &back);
  if (back != v) std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

std::string MetricsRegistry::to_json(bool include_timers) const {
  std::string out;
  out.reserve(256);
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, name);
    out += ':';
    append_u64(out, c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, name);
    out += ':';
    append_double(out, g.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, name);
    out += ":{\"lo\":";
    append_double(out, h.lo());
    out += ",\"hi\":";
    append_double(out, h.hi());
    out += ",\"underflow\":";
    append_u64(out, h.underflow());
    out += ",\"overflow\":";
    append_u64(out, h.overflow());
    out += ",\"total\":";
    append_u64(out, h.total());
    out += ",\"counts\":[";
    for (std::size_t i = 0; i < h.bins(); ++i) {
      if (i) out += ',';
      append_u64(out, h.bin_count(i));
    }
    out += "]}";
  }
  out += '}';
  if (include_timers) {
    out += ",\"timers\":{";
    first = true;
    for (const auto& [name, t] : timers_) {
      if (!first) out += ',';
      first = false;
      append_escaped(out, name);
      out += ":{\"count\":";
      append_u64(out, t.count);
      out += ",\"total_s\":";
      append_double(out, t.total_seconds);
      out += ",\"max_s\":";
      append_double(out, t.max_seconds);
      out += '}';
    }
    out += '}';
  }
  out += '}';
  return out;
}

void MetricsRegistry::write_json(std::ostream& out, bool include_timers) const {
  out << to_json(include_timers) << '\n';
}

std::uint64_t ScopedTimer::steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace abw::obs
