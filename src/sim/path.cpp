#include "sim/path.hpp"

#include <limits>
#include <stdexcept>

namespace abw::sim {

Path::Path(Simulator& sim, const std::vector<LinkConfig>& configs) : sim_(&sim) {
  if (configs.empty()) throw std::invalid_argument("Path: need at least one hop");
  links_.reserve(configs.size());
  routers_.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    links_.push_back(
        std::make_unique<Link>(sim, "link" + std::to_string(i), configs[i]));
    // Onward pointer is wired below once the next link exists.
    routers_.push_back(std::make_unique<RouterNode>(
        static_cast<std::uint32_t>(i), nullptr, &cross_sink_));
    links_[i]->set_next(routers_[i].get());
  }
  for (std::size_t i = 0; i + 1 < links_.size(); ++i)
    routers_[i]->set_onward(links_[i + 1].get());
  // The last router forwards to the receiver, set via set_receiver().
}

void Path::set_receiver(PacketHandler* receiver) {
  receiver_ = receiver;
  routers_.back()->set_onward(receiver);
}

void Path::inject(std::size_t hop, Packet pkt) {
  links_.at(hop)->handle(pkt);
}

void Path::sync_hybrid(SimTime t) const {
  if (hybrid_agents_.empty()) return;
  if (t > sim_->now()) t = sim_->now();
  for (HybridAgent* a : hybrid_agents_) a->sync(t);
}

double Path::avail_bw(SimTime t1, SimTime t2) const {
  sync_hybrid(t2);
  double a = std::numeric_limits<double>::infinity();
  for (const auto& l : links_) a = std::min(a, l->meter().avail_bw(t1, t2));
  return a;
}

double Path::cross_avail_bw(SimTime t1, SimTime t2) const {
  sync_hybrid(t2);
  double a = std::numeric_limits<double>::infinity();
  for (const auto& l : links_) a = std::min(a, l->meter().cross_avail_bw(t1, t2));
  return a;
}

std::size_t Path::tight_link(SimTime t1, SimTime t2) const {
  sync_hybrid(t2);
  std::size_t best = 0;
  double a = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < links_.size(); ++i) {
    double ai = links_[i]->meter().avail_bw(t1, t2);
    if (ai < a) {
      a = ai;
      best = i;
    }
  }
  return best;
}

double Path::narrow_capacity() const {
  double c = std::numeric_limits<double>::infinity();
  for (const auto& l : links_) c = std::min(c, l->capacity_bps());
  return c;
}

SimTime Path::base_owd(std::uint32_t bytes) const {
  SimTime t = 0;
  for (const auto& l : links_)
    t += transmission_time(bytes, l->capacity_bps()) + l->propagation_delay();
  return t;
}

}  // namespace abw::sim
