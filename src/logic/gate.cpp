#include "logic/gate.hpp"

namespace obd::logic {

int gate_arity(GateType t) {
  switch (t) {
    case GateType::kBuf:
    case GateType::kInv:
      return 1;
    case GateType::kNand2:
    case GateType::kNor2:
    case GateType::kAnd2:
    case GateType::kOr2:
    case GateType::kXor2:
    case GateType::kXnor2:
      return 2;
    case GateType::kNand3:
    case GateType::kNor3:
    case GateType::kAoi21:
    case GateType::kOai21:
      return 3;
    case GateType::kNand4:
    case GateType::kNor4:
    case GateType::kAoi22:
      return 4;
  }
  return 0;
}

const char* gate_type_name(GateType t) {
  switch (t) {
    case GateType::kBuf: return "BUF";
    case GateType::kInv: return "INV";
    case GateType::kNand2: return "NAND2";
    case GateType::kNand3: return "NAND3";
    case GateType::kNand4: return "NAND4";
    case GateType::kNor2: return "NOR2";
    case GateType::kNor3: return "NOR3";
    case GateType::kNor4: return "NOR4";
    case GateType::kAnd2: return "AND2";
    case GateType::kOr2: return "OR2";
    case GateType::kXor2: return "XOR2";
    case GateType::kXnor2: return "XNOR2";
    case GateType::kAoi21: return "AOI21";
    case GateType::kAoi22: return "AOI22";
    case GateType::kOai21: return "OAI21";
  }
  return "?";
}

bool gate_eval(GateType t, std::uint32_t v) {
  const bool a = v & 1u;
  const bool b = v & 2u;
  const bool c = v & 4u;
  const bool d = v & 8u;
  switch (t) {
    case GateType::kBuf: return a;
    case GateType::kInv: return !a;
    case GateType::kNand2: return !(a && b);
    case GateType::kNand3: return !(a && b && c);
    case GateType::kNand4: return !(a && b && c && d);
    case GateType::kNor2: return !(a || b);
    case GateType::kNor3: return !(a || b || c);
    case GateType::kNor4: return !(a || b || c || d);
    case GateType::kAnd2: return a && b;
    case GateType::kOr2: return a || b;
    case GateType::kXor2: return a != b;
    case GateType::kXnor2: return a == b;
    case GateType::kAoi21: return !((a && b) || c);
    case GateType::kAoi22: return !((a && b) || (c && d));
    case GateType::kOai21: return !((a || b) && c);
  }
  return false;
}

Tri gate_eval3(GateType t, const Tri* in) {
  const int n = gate_arity(t);
  // If no X among inputs, defer to the boolean function.
  bool any_x = false;
  std::uint32_t bits = 0;
  for (int i = 0; i < n; ++i) {
    if (in[i] == Tri::kX) {
      any_x = true;
    } else if (in[i] == Tri::k1) {
      bits |= (1u << i);
    }
  }
  if (!any_x) return tri_of(gate_eval(t, bits));

  // With X present: the output is known iff it is identical for all
  // completions of the X inputs. Arity <= 4 so enumeration is cheap.
  std::uint32_t x_mask = 0;
  for (int i = 0; i < n; ++i)
    if (in[i] == Tri::kX) x_mask |= (1u << i);
  bool first = true;
  bool value = false;
  for (std::uint32_t sub = x_mask;; sub = (sub - 1) & x_mask) {
    const bool out = gate_eval(t, bits | sub);
    if (first) {
      value = out;
      first = false;
    } else if (out != value) {
      return Tri::kX;
    }
    if (sub == 0) break;
  }
  return tri_of(value);
}

std::uint64_t gate_eval_words(GateType t, const std::uint64_t* in) {
  switch (t) {
    case GateType::kBuf: return in[0];
    case GateType::kInv: return ~in[0];
    case GateType::kNand2: return ~(in[0] & in[1]);
    case GateType::kNand3: return ~(in[0] & in[1] & in[2]);
    case GateType::kNand4: return ~(in[0] & in[1] & in[2] & in[3]);
    case GateType::kNor2: return ~(in[0] | in[1]);
    case GateType::kNor3: return ~(in[0] | in[1] | in[2]);
    case GateType::kNor4: return ~(in[0] | in[1] | in[2] | in[3]);
    case GateType::kAnd2: return in[0] & in[1];
    case GateType::kOr2: return in[0] | in[1];
    case GateType::kXor2: return in[0] ^ in[1];
    case GateType::kXnor2: return ~(in[0] ^ in[1]);
    case GateType::kAoi21: return ~((in[0] & in[1]) | in[2]);
    case GateType::kAoi22: return ~((in[0] & in[1]) | (in[2] & in[3]));
    case GateType::kOai21: return ~((in[0] | in[1]) & in[2]);
  }
  return 0;
}

bool is_primitive_cmos(GateType t) {
  switch (t) {
    case GateType::kInv:
    case GateType::kNand2:
    case GateType::kNand3:
    case GateType::kNand4:
    case GateType::kNor2:
    case GateType::kNor3:
    case GateType::kNor4:
    case GateType::kAoi21:
    case GateType::kAoi22:
    case GateType::kOai21:
      return true;
    default:
      return false;
  }
}

std::optional<cells::CellTopology> gate_topology(GateType t) {
  switch (t) {
    case GateType::kInv: return cells::inv_topology();
    case GateType::kNand2: return cells::nand_topology(2);
    case GateType::kNand3: return cells::nand_topology(3);
    case GateType::kNand4: return cells::nand_topology(4);
    case GateType::kNor2: return cells::nor_topology(2);
    case GateType::kNor3: return cells::nor_topology(3);
    case GateType::kNor4: return cells::nor_topology(4);
    case GateType::kAoi21: return cells::aoi21_topology();
    case GateType::kAoi22: return cells::aoi22_topology();
    case GateType::kOai21: return cells::oai21_topology();
    default: return std::nullopt;
  }
}

}  // namespace obd::logic
