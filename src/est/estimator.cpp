#include "est/estimator.hpp"

#include <cmath>
#include <cstdio>

namespace abw::est {

std::string_view abort_reason_name(AbortReason r) {
  switch (r) {
    case AbortReason::kNone:
      return "none";
    case AbortReason::kProbeBudgetExhausted:
      return "probe-budget";
    case AbortReason::kDeadline:
      return "deadline";
    case AbortReason::kInsufficientData:
      return "insufficient-data";
  }
  return "unknown";
}

Estimate Estimator::abort_estimate(AbortReason reason, std::string_view tool) {
  std::string why(tool);
  why += ": aborted (";
  why += abort_reason_name(reason);
  why += " limit exceeded before convergence)";
  return Estimate::aborted(reason, std::move(why));
}

namespace {

// Diagnostics values are usually counts; print those without a decimal
// point so synthesized detail strings read like the historical ones
// ("pairs=100", not "pairs=100.000000").
void append_number(std::string& out, double v) {
  char buf[40];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.15g", v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back != v) std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  out += buf;
}

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  out += '"';
}

}  // namespace

double Estimate::diag_value(std::string_view key) const {
  for (const Diag& d : diagnostics)
    if (d.key == key) return d.value;
  return std::numeric_limits<double>::quiet_NaN();
}

std::string Estimate::to_json() const {
  std::string out = "{\"valid\":";
  out += valid ? "true" : "false";
  out += ",\"low_bps\":";
  append_number(out, low_bps);
  out += ",\"high_bps\":";
  append_number(out, high_bps);
  out += ",\"abort\":";
  append_escaped(out, abort_reason_name(abort));
  out += ",\"detail\":";
  append_escaped(out, detail);
  out += ",\"cost\":{\"streams\":";
  append_number(out, static_cast<double>(cost.streams));
  out += ",\"packets\":";
  append_number(out, static_cast<double>(cost.packets));
  out += ",\"bytes\":";
  append_number(out, static_cast<double>(cost.bytes));
  out += ",\"elapsed_s\":";
  append_number(out, sim::to_seconds(cost.elapsed()));
  out += "},\"diagnostics\":{";
  bool first = true;
  for (const Diag& d : diagnostics) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, d.key);
    out += ':';
    // NaN is not valid JSON; diagnostics carrying "no value" serialize
    // as null so downstream parsers keep working.
    if (std::isfinite(d.value)) {
      append_number(out, d.value);
    } else {
      out += "null";
    }
  }
  out += "}}";
  return out;
}

Estimate Estimator::estimate(probe::Transport& transport) {
  Estimate e;
  {
    std::string timer_key;
    if (metrics_) {
      timer_key.reserve(32);
      timer_key = "est.";
      timer_key += name();
      timer_key += ".seconds";
    }
    obs::ScopedTimer timer(metrics_ ? &metrics_->timer(timer_key) : nullptr);
    e = do_estimate(transport);
  }
  e.cost = transport.cost();

  // Synthesize the human-readable detail from the structured diagnostics
  // when the tool did not set one ("key=value key=value ...").
  if (e.detail.empty() && !e.diagnostics.empty()) {
    for (const Diag& d : e.diagnostics) {
      if (!e.detail.empty()) e.detail += ' ';
      e.detail += d.key;
      e.detail += '=';
      append_number(e.detail, d.value);
    }
  }

  if (metrics_) {
    std::string prefix = "est.";
    prefix += name();
    metrics_->counter(prefix + ".runs").add();
    if (e.valid) metrics_->counter(prefix + ".valid").add();
    if (e.abort != AbortReason::kNone) {
      std::string key = prefix + ".abort.";
      key += abort_reason_name(e.abort);
      metrics_->counter(key).add();
    }
    for (const Diag& d : e.diagnostics)
      if (std::isfinite(d.value))
        metrics_->gauge(prefix + ".diag." + d.key).set(d.value);
    if (e.valid)
      metrics_->histogram(prefix + ".point_mbps", 0.0, 200.0, 40)
          .add(e.point_bps() / 1e6);
  }

  if (trace_) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kDecision;
    ev.time = transport.now();
    ev.source = name();
    ev.label = "estimate";
    ev.text = e.valid ? "valid" : abort_reason_name(e.abort);
    ev.count = e.cost.streams;
    ev.value = e.low_bps;
    ev.value2 = e.high_bps;
    trace_->emit(ev);
  }
  return e;
}

void Estimator::decision(probe::Transport& transport, std::string_view what,
                         std::string_view outcome, std::uint64_t iter,
                         double value, double aux) {
  if (!trace_) return;
  obs::TraceEvent ev;
  ev.kind = obs::EventKind::kDecision;
  ev.time = transport.now();
  ev.source = name();
  ev.label = what;
  ev.text = outcome;
  ev.count = iter;
  ev.value = value;
  ev.value2 = aux;
  trace_->emit(ev);
}

}  // namespace abw::est
