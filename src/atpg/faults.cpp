#include "atpg/faults.hpp"

#include "atpg/goals.hpp"

namespace obd::atpg {

std::vector<StuckFault> enumerate_stuck_faults(const Circuit& c) {
  std::vector<StuckFault> out;
  out.reserve(c.num_nets() * 2);
  for (std::size_t n = 0; n < c.num_nets(); ++n) {
    out.push_back({static_cast<NetId>(n), false});
    out.push_back({static_cast<NetId>(n), true});
  }
  return out;
}

std::vector<TransitionFault> enumerate_transition_faults(const Circuit& c) {
  std::vector<TransitionFault> out;
  out.reserve(c.num_gates() * 2);
  for (const auto& g : c.gates()) {
    out.push_back({g.output, true});
    out.push_back({g.output, false});
  }
  return out;
}

std::vector<ObdFaultSite> enumerate_obd_faults(const Circuit& c,
                                               bool nand_only) {
  std::vector<ObdFaultSite> out;
  for (std::size_t gi = 0; gi < c.num_gates(); ++gi) {
    const auto& g = c.gate(static_cast<int>(gi));
    if (!logic::is_primitive_cmos(g.type)) continue;
    if (nand_only && g.type != logic::GateType::kNand2 &&
        g.type != logic::GateType::kNand3 && g.type != logic::GateType::kNand4)
      continue;
    for (const ObdTransistor& t : obd_cell(g.type)->transistors)
      out.push_back({static_cast<int>(gi), t.transistor});
  }
  return out;
}

std::string fault_name(const Circuit& c, const StuckFault& f) {
  return c.net_name(f.net) + (f.value ? "/sa1" : "/sa0");
}

std::string fault_name(const Circuit& c, const TransitionFault& f) {
  return c.net_name(f.net) + (f.slow_to_rise ? "/str" : "/stf");
}

std::string fault_name(const Circuit& c, const ObdFaultSite& f) {
  const auto& g = c.gate(f.gate_index);
  return g.name + "." + (f.transistor.pmos ? "P" : "N") +
         std::to_string(f.transistor.input) + "/obd";
}

}  // namespace obd::atpg
