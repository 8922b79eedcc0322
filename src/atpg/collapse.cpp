#include "atpg/collapse.hpp"

#include <map>
#include <unordered_map>

#include "atpg/goals.hpp"

namespace obd::atpg {

bool gate_equivalent(const Circuit& c, const ObdFaultSite& a,
                     const ObdFaultSite& b) {
  return a.gate_index == b.gate_index &&
         obd_facts(c, a).class_id == obd_facts(c, b).class_id;
}

CollapsedFaults collapse_obd_faults(const Circuit& c,
                                    const std::vector<ObdFaultSite>& faults) {
  CollapsedFaults out;
  out.original_count = faults.size();
  out.class_of.resize(faults.size());
  // Group by (gate, class id): one flat key per fault.
  std::unordered_map<std::uint64_t, std::size_t> classes;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const auto& f = faults[i];
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(f.gate_index))
         << 32) |
        static_cast<std::uint32_t>(obd_facts(c, f).class_id);
    const auto [it, fresh] = classes.emplace(key, out.representatives.size());
    if (fresh) out.representatives.push_back(f);
    out.class_of[i] = it->second;
  }
  return out;
}

namespace {

/// Union-find over (net, polarity) slots.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  void merge(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

CollapsedStuck collapse_stuck_faults(const Circuit& c,
                                     const std::vector<StuckFault>& faults) {
  using logic::GateType;
  const auto slot = [](NetId n, bool v) {
    return static_cast<std::size_t>(n) * 2 + (v ? 1 : 0);
  };
  DisjointSets sets(c.num_nets() * 2);
  // A PO net's fault is observed directly, so it never merges with its
  // driver-side twin (their detecting test sets differ).
  std::vector<std::uint8_t> is_po(c.num_nets(), 0);
  for (NetId po : c.outputs()) is_po[static_cast<std::size_t>(po)] = 1;

  for (const auto& g : c.gates()) {
    // (controlling input value -> forced output value) per gate family;
    // XOR/XNOR/AOI/OAI have no single-input equivalence.
    bool in_v = false, out_v = false, both = false, any = true;
    switch (g.type) {
      case GateType::kAnd2: in_v = false; out_v = false; break;
      case GateType::kNand2:
      case GateType::kNand3:
      case GateType::kNand4: in_v = false; out_v = true; break;
      case GateType::kOr2: in_v = true; out_v = true; break;
      case GateType::kNor2:
      case GateType::kNor3:
      case GateType::kNor4: in_v = true; out_v = false; break;
      case GateType::kBuf: both = true; out_v = false; break;
      case GateType::kInv: both = true; out_v = true; break;
      default: any = false; break;
    }
    if (!any) continue;
    for (NetId in : g.inputs) {
      const auto n = static_cast<std::size_t>(in);
      if (c.fanout_of(in).size() != 1 || is_po[n]) continue;
      if (both) {
        sets.merge(slot(in, false), slot(g.output, out_v));
        sets.merge(slot(in, true), slot(g.output, !out_v));
      } else {
        sets.merge(slot(in, in_v), slot(g.output, out_v));
      }
    }
  }

  CollapsedStuck out;
  out.original_count = faults.size();
  out.class_of.resize(faults.size());
  std::map<std::size_t, std::size_t> class_ids;  // root slot -> class id
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const std::size_t root = sets.find(slot(faults[i].net, faults[i].value));
    const auto it = class_ids.find(root);
    if (it != class_ids.end()) {
      out.class_of[i] = it->second;
      continue;
    }
    const std::size_t id = out.representatives.size();
    class_ids.emplace(root, id);
    out.representatives.push_back(faults[i]);
    out.class_of[i] = id;
  }
  return out;
}

}  // namespace obd::atpg
