#include "atpg/goals.hpp"

#include <algorithm>

#include "core/excitation.hpp"
#include "logic/gate.hpp"

namespace obd::atpg {
namespace {

/// Number of gate types (kOai21 is the last): the tables are indexed by type.
constexpr auto kGateTypes =
    static_cast<std::size_t>(logic::GateType::kOai21) + 1;

/// Derives one cell's table from its transistor network.
std::optional<ObdCell> build_cell(logic::GateType type) {
  const auto topo = logic::gate_topology(type);
  if (!topo.has_value()) return std::nullopt;
  ObdCell cell;
  const cells::InputBits n_vec = 1u << topo->num_inputs;
  for (cells::InputBits v = 0; v < n_vec; ++v)
    if (topo->output(v)) cell.output |= static_cast<std::uint16_t>(1u << v);
  // Distinct non-empty excitation sets, in first-seen order: set k has
  // class id k + 1 (kNoExcitation is 0).
  std::vector<const ObdTransistor*> classes;
  for (const auto& t : topo->transistors()) {
    ObdTransistor entry;
    entry.transistor = t;
    entry.excitations = core::obd_excitations(*topo, t);
    for (const auto& tv : entry.excitations)
      entry.mask[tv.v1] |= static_cast<std::uint16_t>(1u << tv.v2);
    cell.transistors.push_back(std::move(entry));
  }
  for (ObdTransistor& entry : cell.transistors) {
    if (entry.excitations.empty()) continue;
    const auto same = std::find_if(
        classes.begin(), classes.end(),
        [&](const ObdTransistor* seen) { return seen->mask == entry.mask; });
    entry.class_id = static_cast<int>(same - classes.begin()) + 1;
    if (same == classes.end()) classes.push_back(&entry);
  }
  return cell;
}

const ObdTransistor& no_excitation() {
  static const ObdTransistor none;
  return none;
}

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

const ObdTransistor& ObdCell::at(const cells::TransistorRef& t) const {
  for (const ObdTransistor& entry : transistors)
    if (entry.transistor == t) return entry;
  return no_excitation();
}

const ObdCell* obd_cell(logic::GateType t) {
  static const std::array<std::optional<ObdCell>, kGateTypes> cells = [] {
    std::array<std::optional<ObdCell>, kGateTypes> out;
    for (std::size_t i = 0; i < kGateTypes; ++i)
      out[i] = build_cell(static_cast<logic::GateType>(i));
    return out;
  }();
  const auto& cell = cells[static_cast<std::size_t>(t)];
  return cell.has_value() ? &*cell : nullptr;
}

const ObdTransistor& obd_facts(const Circuit& c, const ObdFaultSite& site) {
  const ObdCell* cell = obd_cell(c.gate(site.gate_index).type);
  return cell != nullptr ? cell->at(site.transistor) : no_excitation();
}

std::vector<TwoFrameGoal> goals_of(const Circuit& c, const ObdFaultSite& site) {
  const auto& g = c.gate(site.gate_index);
  const ObdCell* cell = obd_cell(g.type);
  if (cell == nullptr) return {};
  std::vector<TwoFrameGoal> goals;
  for (const auto& tv : cell->at(site.transistor).excitations) {
    TwoFrameGoal goal;
    goal.fault_frame = {pin_gate_inputs(c, site.gate_index, tv.v2),
                        StuckFault{g.output, cell->output_at(tv.v1)}};
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
