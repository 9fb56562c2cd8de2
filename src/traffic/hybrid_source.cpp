#include "traffic/hybrid_source.hpp"

#include <stdexcept>
#include <utility>

namespace abw::traffic {

HybridCrossSource::HybridCrossSource(sim::Simulator& sim, sim::Path& path,
                                     std::size_t entry_hop, bool one_hop,
                                     std::uint32_t flow_id,
                                     std::unique_ptr<Generator> gen)
    : sim_(sim),
      path_(path),
      entry_hop_(entry_hop),
      flow_id_(flow_id),
      exit_hop_(one_hop ? static_cast<std::uint32_t>(entry_hop)
                        : sim::kEndToEnd),
      gen_(std::move(gen)) {
  if (!gen_) throw std::invalid_argument("HybridCrossSource: null generator");
  if (entry_hop >= path.hop_count())
    throw std::invalid_argument("HybridCrossSource: entry_hop out of range");
}

void HybridCrossSource::start(sim::SimTime t0, sim::SimTime t1) {
  if (started_) throw std::logic_error("HybridCrossSource::start called twice");
  started_ = true;
  gen_->begin_stream(t0, t1);
  fq_ = &path_.link(entry_hop_).enable_fluid(this);
  fq_->set_identity(flow_id_, exit_hop_);
  // The epoch starts now, not at t0: a discrete packet may arrive before
  // the first cross arrival and must find the server idle.
  fq_->reset(sim_.now());
  path_.attach_hybrid(this);
  chunk_.reserve(kChunk);
}

bool HybridCrossSource::refill() {
  chunk_.clear();
  cursor_ = 0;
  return gen_->fill(chunk_, kChunk) > 0;
}

void HybridCrossSource::pump(sim::SimTime t) {
  for (;;) {
    // Absorb the chunk prefix with arrival times <= t in one call.  A
    // whole-chunk prefix (every sync that covers the chunk, i.e. almost
    // always when pumping a long fluid stretch) is detected from the last
    // element instead of re-scanning times absorb() is about to read.
    std::size_t end = cursor_;
    if (cursor_ < chunk_.size() && chunk_.times[chunk_.size() - 1] <= t) {
      end = chunk_.size();
    } else {
      while (end < chunk_.size() && chunk_.times[end] <= t) ++end;
    }
    if (end > cursor_) {
      fq_->absorb(chunk_.times.data() + cursor_, chunk_.sizes.data() + cursor_,
                  end - cursor_, t);
      cursor_ = end;
    }
    if (cursor_ < chunk_.size() || gen_->stream_done()) break;
    if (!refill()) break;
  }
  fq_->advance(t);
}

void HybridCrossSource::sync(sim::SimTime t) {
  if (t > sim_.now()) t = sim_.now();
  pump(t);
}

}  // namespace abw::traffic
