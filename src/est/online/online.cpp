#include "est/online/online.hpp"

#include <algorithm>
#include <string>

namespace abw::est::online {

OnlineSample OnlineEstimator::to_sample(const probe::StreamResult& res) {
  OnlineSample s;
  s.rate_bps = res.output_rate_bps();
  s.input_rate_bps = res.input_rate_bps();
  // Strain as the mean relative gap dilation over consecutive *received*
  // pairs, not the aggregate Ri/Ro - 1: a lost packet merges two gaps on
  // both the send and receive side, so the ratio still measures the
  // fluid-model dilation, whereas aggregate Ro loses the dropped bits and
  // reads phantom congestion at any rate (for complete streams the two
  // definitions coincide: dr/ds = Ri/Ro per gap).  Reordered pairs
  // contribute negative dilation and average out.
  double dilation = 0.0;
  std::size_t gaps = 0;
  const probe::ProbeRecord* prev = nullptr;
  for (const auto& p : res.packets) {
    if (p.lost) continue;
    if (prev != nullptr) {
      sim::SimTime ds = p.sent - prev->sent;
      if (ds > 0) {
        dilation += static_cast<double>(p.received - prev->received -
                                        static_cast<std::int64_t>(ds)) /
                    static_cast<double>(ds);
        ++gaps;
      }
    }
    prev = &p;
  }
  if (gaps > 0)
    s.strain = std::max(0.0, dilation / static_cast<double>(gaps));
  else if (s.rate_bps > 0.0 && s.input_rate_bps > 0.0)
    s.strain = std::max(0.0, s.input_rate_bps / s.rate_bps - 1.0);
  s.packets = res.packets.size();
  s.impaired = res.impaired();
  sim::SimTime t = 0;
  bool any = false;
  for (const auto& p : res.packets) {
    if (p.lost) continue;
    any = true;
    t = std::max(t, p.received);
  }
  if (!any && !res.packets.empty()) t = res.packets.back().sent;
  s.time = t;
  return s;
}

FeedResult OnlineEstimator::feed(const OnlineSample& s) {
  if (abort_ != AbortReason::kNone) return FeedResult::kExhausted;

  // Admission control, before any state moves: a sample that would bust
  // the budget or the deadline never reaches the tracker.
  AbortReason tripped = AbortReason::kNone;
  if (limits_.max_probe_packets > 0 &&
      packets_consumed_ + s.packets > limits_.max_probe_packets)
    tripped = AbortReason::kProbeBudgetExhausted;
  else if (limits_.deadline > 0 && saw_sample_ &&
           s.time - first_sample_time_ >= limits_.deadline)
    tripped = AbortReason::kDeadline;
  if (tripped != AbortReason::kNone) {
    abort_ = tripped;
    if (metrics_) {
      std::string key = "online.";
      key += name();
      key += ".abort.";
      key += abort_reason_name(tripped);
      metrics_->counter(key).add();
    }
    decision(s.time, "admission", abort_reason_name(tripped),
             belief_.estimate_bps, belief_.confidence);
    return FeedResult::kExhausted;
  }

  if (!saw_sample_) {
    saw_sample_ = true;
    first_sample_time_ = s.time;
  }
  packets_consumed_ += s.packets;

  bool used = do_update(s);
  if (used) {
    ++belief_.updates;
    belief_.last_update = s.time;
  }
  if (metrics_) {
    std::string prefix = "online.";
    prefix += name();
    metrics_->counter(prefix + (used ? ".updates" : ".rejected")).add();
    if (belief_.valid()) {
      metrics_->gauge(prefix + ".estimate_bps").set(belief_.estimate_bps);
      metrics_->gauge(prefix + ".confidence").set(belief_.confidence);
    }
  }
  decision(s.time, "update", used ? "updated" : "rejected",
           belief_.estimate_bps, belief_.confidence);
  return used ? FeedResult::kUpdated : FeedResult::kRejected;
}

FeedResult OnlineEstimator::feed(const probe::StreamResult& res) {
  return feed(to_sample(res));
}

void OnlineEstimator::decision(sim::SimTime t, std::string_view what,
                               std::string_view outcome, double value,
                               double aux) {
  if (!trace_) return;
  obs::TraceEvent ev;
  ev.kind = obs::EventKind::kDecision;
  ev.time = t;
  ev.source = name();
  ev.label = what;
  ev.text = outcome;
  ev.count = belief_.updates;
  ev.value = value;
  ev.value2 = aux;
  trace_->emit(ev);
}

}  // namespace abw::est::online
