#include "atpg/goals.hpp"

#include "core/excitation.hpp"
#include "logic/gate.hpp"

namespace obd::atpg {
namespace {

/// Constraints pinning every input of gate `gate_idx` to the matching bit
/// of `bits` (input k is bit k, as in cells::TwoVector), in input order.
std::vector<NetConstraint> pin_gate_inputs(const Circuit& c, int gate_idx,
                                           std::uint32_t bits) {
  const auto& g = c.gate(gate_idx);
  std::vector<NetConstraint> out;
  out.reserve(g.inputs.size());
  for (std::size_t k = 0; k < g.inputs.size(); ++k)
    out.push_back({g.inputs[k], ((bits >> k) & 1u) != 0});
  return out;
}

}  // namespace

std::vector<TwoFrameGoal> goals_of(const Circuit& c, const ObdFaultSite& site) {
  const auto& g = c.gate(site.gate_index);
  const auto topo = logic::gate_topology(g.type);
  if (!topo.has_value()) return {};
  std::vector<TwoFrameGoal> goals;
  for (const auto& tv : core::obd_excitations(*topo, site.transistor)) {
    TwoFrameGoal goal;
    goal.fault_frame = {pin_gate_inputs(c, site.gate_index, tv.v2),
                        StuckFault{g.output, topo->output(tv.v1)}};
    goal.justify_frame =
        FrameGoal{pin_gate_inputs(c, site.gate_index, tv.v1), std::nullopt};
    goals.push_back(std::move(goal));
  }
  return goals;
}

std::vector<TwoFrameGoal> goals_of(const Circuit&,
                                   const TransitionFault& fault) {
  const bool final_value = fault.slow_to_rise;
  TwoFrameGoal goal;
  goal.fault_frame = {{{fault.net, final_value}},
                      StuckFault{fault.net, !final_value}};
  goal.justify_frame = FrameGoal{{{fault.net, !final_value}}, std::nullopt};
  return {goal};
}

std::vector<TwoFrameGoal> goals_of(const Circuit&, const StuckFault& fault) {
  TwoFrameGoal goal;
  goal.fault_frame.fault = fault;
  return {goal};
}

}  // namespace obd::atpg
