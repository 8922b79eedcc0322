#include "logic/circuit.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "logic/laneblock.hpp"

namespace obd::logic {

NetId Circuit::net(const std::string& name) {
  auto it = net_ids_.find(name);
  if (it != net_ids_.end()) return it->second;
  const NetId id = static_cast<NetId>(net_names_.size());
  net_names_.push_back(name);
  net_ids_.emplace(name, id);
  driver_.push_back(-1);
  fanouts_.emplace_back();
  return id;
}

NetId Circuit::add_input(const std::string& name) {
  const NetId n = net(name);
  inputs_.push_back(n);
  return n;
}

void Circuit::mark_output(NetId n) {
  outputs_.push_back(n);
  stem_cache_.clear();  // a PO is a stem
  cone_cache_.clear();
}

int Circuit::add_gate(GateType type, const std::string& name,
                      const std::vector<NetId>& inputs, NetId output) {
  assert(static_cast<int>(inputs.size()) == gate_arity(type));
  const int idx = static_cast<int>(gates_.size());
  gates_.push_back(Gate{type, name, inputs, output});
  driver_[static_cast<std::size_t>(output)] = idx;
  for (NetId in : inputs) fanouts_[static_cast<std::size_t>(in)].push_back(idx);
  topo_valid_ = false;
  stem_cache_.clear();
  cone_cache_.clear();
  return idx;
}

NetId Circuit::find_net(const std::string& name) const {
  auto it = net_ids_.find(name);
  return it == net_ids_.end() ? kNoNet : it->second;
}

const std::vector<int>& Circuit::topo_order() const {
  if (topo_valid_) return topo_cache_;
  topo_cache_.clear();
  // Kahn's algorithm over gates, counting unresolved gate-input nets.
  std::vector<int> pending(gates_.size(), 0);
  std::vector<bool> net_ready(net_names_.size(), false);
  for (NetId n : inputs_) net_ready[static_cast<std::size_t>(n)] = true;
  for (std::size_t n = 0; n < net_names_.size(); ++n)
    if (driver_[n] < 0) net_ready[n] = true;  // undriven nets: treated ready

  std::vector<int> ready;
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    int unresolved = 0;
    for (NetId in : gates_[g].inputs)
      if (!net_ready[static_cast<std::size_t>(in)]) ++unresolved;
    pending[g] = unresolved;
    if (unresolved == 0) ready.push_back(static_cast<int>(g));
  }
  while (!ready.empty()) {
    const int g = ready.back();
    ready.pop_back();
    topo_cache_.push_back(g);
    const NetId out = gates_[static_cast<std::size_t>(g)].output;
    if (net_ready[static_cast<std::size_t>(out)]) continue;
    net_ready[static_cast<std::size_t>(out)] = true;
    for (int f : fanouts_[static_cast<std::size_t>(out)])
      if (--pending[static_cast<std::size_t>(f)] == 0) ready.push_back(f);
  }
  topo_valid_ = true;
  return topo_cache_;
}

std::vector<int> Circuit::gate_levels() const {
  std::vector<int> net_level(net_names_.size(), 0);
  std::vector<int> level(gates_.size(), 0);
  for (int g : topo_order()) {
    int lvl = 0;
    for (NetId in : gates_[static_cast<std::size_t>(g)].inputs)
      lvl = std::max(lvl, net_level[static_cast<std::size_t>(in)]);
    level[static_cast<std::size_t>(g)] = lvl + 1;
    net_level[static_cast<std::size_t>(
        gates_[static_cast<std::size_t>(g)].output)] = lvl + 1;
  }
  return level;
}

NetId Circuit::ffr_stem(NetId n) const {
  if (stem_cache_.size() != net_names_.size()) build_cones();
  return stem_cache_[static_cast<std::size_t>(n)];
}

const std::vector<int>& Circuit::fanout_cone(NetId n) const {
  if (cone_cache_.size() != net_names_.size()) build_cones();
  return cone_cache_[static_cast<std::size_t>(n)];
}

void Circuit::build_cones() const {
  const std::vector<int>& order = topo_order();
  const std::vector<int> level = gate_levels();
  std::vector<int> rank(gates_.size(), 0);
  for (std::size_t r = 0; r < order.size(); ++r)
    rank[static_cast<std::size_t>(order[r])] = static_cast<int>(r);
  const auto before = [&](int a, int b) {
    const auto sa = static_cast<std::size_t>(a);
    const auto sb = static_cast<std::size_t>(b);
    return level[sa] != level[sb] ? level[sa] < level[sb] : rank[sa] < rank[sb];
  };
  std::vector<bool> po(net_names_.size(), false);
  for (NetId o : outputs_) po[static_cast<std::size_t>(o)] = true;
  stem_cache_.resize(net_names_.size());
  for (std::size_t net = 0; net < net_names_.size(); ++net)
    stem_cache_[net] = static_cast<NetId>(net);
  cone_cache_.assign(net_names_.size(), {});

  // A non-stem's cone is its chain followed by its stem's cone (its levels
  // rise along the chain, and every stem-cone gate lies past the chain's
  // last gate, so the concatenation is already sorted). `chain` holds it
  // while a merge reads it.
  std::vector<int> merged, scratch, chain;
  const auto cone_of = [&](NetId x) -> const std::vector<int>& {
    const NetId stem = stem_cache_[static_cast<std::size_t>(x)];
    if (stem == x) return cone_cache_[static_cast<std::size_t>(x)];
    chain.clear();
    for (NetId m = x; m != stem;) {
      const int g = fanouts_[static_cast<std::size_t>(m)].front();
      chain.push_back(g);
      m = gate(g).output;
    }
    const std::vector<int>& tail = cone_cache_[static_cast<std::size_t>(stem)];
    chain.insert(chain.end(), tail.begin(), tail.end());
    return chain;
  };
  // A stem's cone is the ordered union of its fanout gates (each sorts
  // before its output's cone) and their output nets' cones. Visiting driven
  // nets in reverse topological order of their drivers, then undriven nets,
  // finds every stem and cone a net reads already built: no per-net search
  // or sort.
  const auto build = [&](std::size_t net) {
    const std::vector<int>& fanout = fanouts_[net];
    if (fanout.size() == 1 && !po[net]) {
      stem_cache_[net] = stem_cache_[static_cast<std::size_t>(
          gate(fanout.front()).output)];
      return;
    }
    merged.clear();
    for (int g : fanout) {
      const std::vector<int>& sub = cone_of(gate(g).output);
      scratch.clear();
      std::set_union(merged.begin(), merged.end(), sub.begin(), sub.end(),
                     std::back_inserter(scratch), before);
      const auto at =
          std::lower_bound(scratch.begin(), scratch.end(), g, before);
      if (at == scratch.end() || *at != g) scratch.insert(at, g);
      merged.swap(scratch);
    }
    cone_cache_[net].assign(merged.begin(), merged.end());
  };
  for (auto g = order.rbegin(); g != order.rend(); ++g)
    build(static_cast<std::size_t>(gate(*g).output));
  for (std::size_t net = 0; net < net_names_.size(); ++net)
    if (driver_[net] < 0) build(net);
}

int Circuit::depth() const {
  int d = 0;
  for (int l : gate_levels()) d = std::max(d, l);
  return d;
}

std::string Circuit::validate() const {
  // Single driver is enforced by construction (driver_ overwritten would
  // indicate a double drive -- detect by counting).
  std::vector<int> drive_count(net_names_.size(), 0);
  for (const auto& g : gates_)
    ++drive_count[static_cast<std::size_t>(g.output)];
  for (std::size_t n = 0; n < net_names_.size(); ++n) {
    if (drive_count[n] > 1)
      return "net '" + net_names_[n] + "' driven by multiple gates";
    const bool is_pi =
        std::find(inputs_.begin(), inputs_.end(), static_cast<NetId>(n)) !=
        inputs_.end();
    if (is_pi && drive_count[n] > 0)
      return "primary input '" + net_names_[n] + "' also driven by a gate";
  }
  if (topo_order().size() != gates_.size())
    return "combinational cycle detected";
  return "";
}

std::vector<bool> Circuit::eval(const InputVec& pi_values) const {
  std::vector<bool> values(net_names_.size(), false);
  for (std::size_t i = 0; i < inputs_.size(); ++i)
    values[static_cast<std::size_t>(inputs_[i])] = pi_values.bit(i);
  for (int g : topo_order()) {
    const Gate& gate = gates_[static_cast<std::size_t>(g)];
    values[static_cast<std::size_t>(gate.output)] =
        gate_eval(gate.type, gate_input_bits(g, values));
  }
  return values;
}

InputVec Circuit::eval_outputs(const InputVec& pi_values) const {
  return pack_outputs(eval(pi_values));
}

InputVec Circuit::pack_outputs(const std::vector<bool>& net_values) const {
  InputVec out;
  for (std::size_t i = 0; i < outputs_.size(); ++i)
    if (net_values[static_cast<std::size_t>(outputs_[i])]) out.set_bit(i);
  return out;
}

std::vector<Tri> Circuit::eval3(const std::vector<Tri>& pi_values,
                                NetId forced_net, Tri forced_value) const {
  std::vector<Tri> values(net_names_.size(), Tri::kX);
  for (std::size_t i = 0; i < inputs_.size() && i < pi_values.size(); ++i) {
    const NetId n = inputs_[i];
    values[static_cast<std::size_t>(n)] =
        (n == forced_net) ? forced_value : pi_values[i];
  }
  Tri ins[8];
  for (int g : topo_order()) {
    const Gate& gate = gates_[static_cast<std::size_t>(g)];
    for (std::size_t k = 0; k < gate.inputs.size(); ++k)
      ins[k] = values[static_cast<std::size_t>(gate.inputs[k])];
    values[static_cast<std::size_t>(gate.output)] =
        (gate.output == forced_net) ? forced_value
                                    : gate_eval3(gate.type, ins);
  }
  return values;
}

std::vector<std::uint64_t> Circuit::eval_words(
    const std::vector<std::uint64_t>& pi_words, NetId forced_net,
    std::uint64_t forced_value) const {
  std::vector<std::uint64_t> values(net_names_.size(), 0);
  for (std::size_t i = 0; i < inputs_.size() && i < pi_words.size(); ++i) {
    const NetId n = inputs_[i];
    values[static_cast<std::size_t>(n)] =
        (n == forced_net) ? forced_value : pi_words[i];
  }
  std::uint64_t ins[8];
  for (int g : topo_order()) {
    const Gate& gate = gates_[static_cast<std::size_t>(g)];
    for (std::size_t k = 0; k < gate.inputs.size(); ++k)
      ins[k] = values[static_cast<std::size_t>(gate.inputs[k])];
    values[static_cast<std::size_t>(gate.output)] =
        (gate.output == forced_net) ? forced_value
                                    : gate_eval_words(gate.type, ins);
  }
  return values;
}

void Circuit::eval_wide_into(const std::vector<std::uint64_t>& pi_words,
                             std::size_t lane_words,
                             std::vector<std::uint64_t>& values) const {
  const std::size_t W = lane_words;
  values.assign(net_names_.size() * W, 0);
  for (std::size_t i = 0; i < inputs_.size() && i * W < pi_words.size(); ++i) {
    std::uint64_t* dst =
        values.data() + static_cast<std::size_t>(inputs_[i]) * W;
    for (std::size_t w = 0; w < W; ++w) dst[w] = pi_words[i * W + w];
  }
  const std::uint64_t* ins[8];
  for (int g : topo_order()) {
    const Gate& gate = gates_[static_cast<std::size_t>(g)];
    for (std::size_t k = 0; k < gate.inputs.size(); ++k)
      ins[k] = values.data() + static_cast<std::size_t>(gate.inputs[k]) * W;
    gate_eval_lanes(gate.type, ins,
                    values.data() + static_cast<std::size_t>(gate.output) * W,
                    W);
  }
}

std::uint32_t Circuit::gate_input_bits(
    int gate_idx, const std::vector<bool>& net_values) const {
  const Gate& g = gates_[static_cast<std::size_t>(gate_idx)];
  std::uint32_t bits = 0;
  for (std::size_t k = 0; k < g.inputs.size(); ++k)
    if (net_values[static_cast<std::size_t>(g.inputs[k])]) bits |= (1u << k);
  return bits;
}

Circuit decompose_composites(const Circuit& c) {
  Circuit out(c.name() + "_prim");
  // Recreate nets lazily through name mapping.
  for (NetId n : c.inputs()) out.add_input(c.net_name(n));
  int fresh = 0;
  auto helper = [&out, &fresh, &c]() {
    return out.net(c.name() + "_d" + std::to_string(fresh++));
  };
  for (const auto& g : c.gates()) {
    std::vector<NetId> ins;
    ins.reserve(g.inputs.size());
    for (NetId n : g.inputs) ins.push_back(out.net(c.net_name(n)));
    const NetId o = out.net(c.net_name(g.output));
    switch (g.type) {
      case GateType::kBuf: {
        const NetId m = helper();
        out.add_gate(GateType::kInv, g.name + "_a", {ins[0]}, m);
        out.add_gate(GateType::kInv, g.name + "_b", {m}, o);
        break;
      }
      case GateType::kAnd2: {
        const NetId m = helper();
        out.add_gate(GateType::kNand2, g.name + "_n", ins, m);
        out.add_gate(GateType::kInv, g.name + "_i", {m}, o);
        break;
      }
      case GateType::kOr2: {
        const NetId ia = helper();
        const NetId ib = helper();
        out.add_gate(GateType::kInv, g.name + "_ia", {ins[0]}, ia);
        out.add_gate(GateType::kInv, g.name + "_ib", {ins[1]}, ib);
        out.add_gate(GateType::kNand2, g.name + "_n", {ia, ib}, o);
        break;
      }
      case GateType::kXor2: {
        // Classic 4-NAND XOR.
        const NetId t = helper();
        const NetId p = helper();
        const NetId q = helper();
        out.add_gate(GateType::kNand2, g.name + "_t", ins, t);
        out.add_gate(GateType::kNand2, g.name + "_p", {ins[0], t}, p);
        out.add_gate(GateType::kNand2, g.name + "_q", {t, ins[1]}, q);
        out.add_gate(GateType::kNand2, g.name + "_o", {p, q}, o);
        break;
      }
      case GateType::kXnor2: {
        const NetId x = helper();
        const NetId t = helper();
        const NetId p = helper();
        const NetId q = helper();
        out.add_gate(GateType::kNand2, g.name + "_t", ins, t);
        out.add_gate(GateType::kNand2, g.name + "_p", {ins[0], t}, p);
        out.add_gate(GateType::kNand2, g.name + "_q", {t, ins[1]}, q);
        out.add_gate(GateType::kNand2, g.name + "_x", {p, q}, x);
        out.add_gate(GateType::kInv, g.name + "_o", {x}, o);
        break;
      }
      default:
        out.add_gate(g.type, g.name, ins, o);
        break;
    }
  }
  for (NetId n : c.outputs()) out.mark_output(out.net(c.net_name(n)));
  return out;
}

}  // namespace obd::logic
