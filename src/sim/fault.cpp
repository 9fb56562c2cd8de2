#include "sim/fault.hpp"

#include <stdexcept>

#include "sim/link.hpp"
#include "sim/simulator.hpp"

namespace abw::sim {

void FaultInjector::set_capacity_at(Link& link, SimTime t, double bps) {
  if (!(bps > 0.0))
    throw std::invalid_argument("FaultInjector: capacity must be > 0");
  if (t < sim_.now())
    throw std::invalid_argument("FaultInjector: trigger time in the past");
  // Mark now, fire later: enable_fluid() must already see the link as
  // dynamic while the change is still pending.
  link.expect_capacity_dynamics();
  ++scheduled_;
  Link* l = &link;
  sim_.at(t, [l, bps] { l->set_capacity(bps); });
}

void FaultInjector::flap(Link& link, SimTime t, SimTime duration, double down_bps) {
  if (duration <= 0)
    throw std::invalid_argument("FaultInjector: flap duration must be > 0");
  double up_bps = link.capacity_bps();
  set_capacity_at(link, t, down_bps);
  set_capacity_at(link, t + duration, up_bps);
}

void FaultInjector::set_link_faults(Link& link, const LinkFaults& faults) {
  link.set_faults(faults);
}

}  // namespace abw::sim
