#include "atpg/sat/cnf.hpp"

#include <algorithm>

#include "logic/gate.hpp"

namespace obd::atpg::sat {

using logic::Gate;
using logic::GateType;
using logic::NetId;

NetVars CnfEncoder::encode_good() {
  NetVars nv;
  nv.var.resize(c_.num_nets(), kNoSatVar);
  for (std::size_t n = 0; n < c_.num_nets(); ++n) nv.var[n] = s_.new_var();
  Var ins[8];
  for (int gi : c_.topo_order()) {
    const Gate& g = c_.gate(gi);
    for (std::size_t k = 0; k < g.inputs.size(); ++k) ins[k] = nv.of(g.inputs[k]);
    encode_gate(g.type, nv.of(g.output), ins);
  }
  return nv;
}

NetVars CnfEncoder::encode_faulty(const NetVars& good, NetId forced,
                                  bool forced_value) {
  // Cone membership: the forced net plus every net a cone gate drives.
  std::vector<bool> in_cone(c_.num_nets(), false);
  in_cone[static_cast<std::size_t>(forced)] = true;
  NetVars nv = good;  // outside the cone the copies share variables
  nv.var[static_cast<std::size_t>(forced)] = s_.new_var();
  pin(nv, forced, forced_value);

  Var ins[8];
  for (int gi : c_.topo_order()) {
    const Gate& g = c_.gate(gi);
    if (g.output == forced) continue;  // replaced net: driver disconnected
    bool touched = false;
    for (const NetId in : g.inputs)
      if (in_cone[static_cast<std::size_t>(in)]) {
        touched = true;
        break;
      }
    if (!touched) continue;
    in_cone[static_cast<std::size_t>(g.output)] = true;
    nv.var[static_cast<std::size_t>(g.output)] = s_.new_var();
    for (std::size_t k = 0; k < g.inputs.size(); ++k) ins[k] = nv.of(g.inputs[k]);
    encode_gate(g.type, nv.of(g.output), ins);
  }
  return nv;
}

bool CnfEncoder::assert_po_difference(const NetVars& good,
                                      const NetVars& faulty) {
  std::vector<Lit> any_diff;
  std::vector<NetId> seen;
  for (const NetId po : c_.outputs()) {
    const Var gv = good.of(po);
    const Var fv = faulty.of(po);
    if (fv == gv) continue;  // PO outside the cone: never differs
    if (std::find(seen.begin(), seen.end(), po) != seen.end()) continue;
    seen.push_back(po);
    const Var d = s_.new_var();
    // d -> (g != f); the reverse direction is unnecessary for a one-sided
    // "some PO differs" assertion.
    clause({mk_lit(d, true), mk_lit(gv), mk_lit(fv)});
    clause({mk_lit(d, true), mk_lit(gv, true), mk_lit(fv, true)});
    any_diff.push_back(mk_lit(d));
  }
  if (any_diff.empty()) return false;
  clause(any_diff);
  return true;
}

void CnfEncoder::assert_sensitized_path(const NetVars& good,
                                        const NetVars& faulty, NetId forced) {
  std::vector<Var> path(c_.num_nets(), kNoSatVar);
  for (std::size_t n = 0; n < c_.num_nets(); ++n) {
    const Var gv = good.var[n];
    const Var fv = faulty.var[n];
    if (fv == gv) continue;  // outside the cone: never differs
    path[n] = s_.new_var();
    clause({mk_lit(path[n], true), mk_lit(gv), mk_lit(fv)});
    clause({mk_lit(path[n], true), mk_lit(gv, true), mk_lit(fv, true)});
  }
  std::vector<bool> is_po(c_.num_nets(), false);
  for (const NetId po : c_.outputs())
    is_po[static_cast<std::size_t>(po)] = true;
  std::vector<Lit> next;
  for (std::size_t n = 0; n < c_.num_nets(); ++n) {
    // A differing PO ends the path; a cone net with no fanout and no PO
    // gets the unit ~s_n.
    if (path[n] == kNoSatVar || is_po[n]) continue;
    next.assign({mk_lit(path[n], true)});
    // Every reader of a cone net is a cone gate, so its output has an s.
    for (const int gi : c_.fanout_of(static_cast<NetId>(n)))
      next.push_back(
          mk_lit(path[static_cast<std::size_t>(c_.gate(gi).output)]));
    clause(next);
  }
  clause({mk_lit(path[static_cast<std::size_t>(forced)])});
}

void CnfEncoder::pin(const NetVars& nv, NetId n, bool value) {
  clause({mk_lit(nv.of(n), !value)});
}

void CnfEncoder::clause(std::vector<Lit> lits) {
  if (guard_ != -1) lits.push_back(guard_);
  s_.add_clause(lits);
}

void CnfEncoder::encode_gate(GateType t, Var o, const Var* x) {
  const int n = logic::gate_arity(t);
  switch (t) {
    case GateType::kBuf:
      clause({mk_lit(o, true), mk_lit(x[0])});
      clause({mk_lit(o), mk_lit(x[0], true)});
      return;
    case GateType::kInv:
      clause({mk_lit(o, true), mk_lit(x[0], true)});
      clause({mk_lit(o), mk_lit(x[0])});
      return;
    case GateType::kAnd2: {
      std::vector<Lit> all{mk_lit(o)};
      for (int i = 0; i < n; ++i) {
        clause({mk_lit(o, true), mk_lit(x[i])});
        all.push_back(mk_lit(x[i], true));
      }
      clause(all);
      return;
    }
    case GateType::kNand2:
    case GateType::kNand3:
    case GateType::kNand4: {
      std::vector<Lit> all{mk_lit(o, true)};
      for (int i = 0; i < n; ++i) {
        clause({mk_lit(o), mk_lit(x[i])});
        all.push_back(mk_lit(x[i], true));
      }
      clause(all);
      return;
    }
    case GateType::kOr2: {
      std::vector<Lit> all{mk_lit(o, true)};
      for (int i = 0; i < n; ++i) {
        clause({mk_lit(o), mk_lit(x[i], true)});
        all.push_back(mk_lit(x[i]));
      }
      clause(all);
      return;
    }
    case GateType::kNor2:
    case GateType::kNor3:
    case GateType::kNor4: {
      std::vector<Lit> all{mk_lit(o)};
      for (int i = 0; i < n; ++i) {
        clause({mk_lit(o, true), mk_lit(x[i], true)});
        all.push_back(mk_lit(x[i]));
      }
      clause(all);
      return;
    }
    case GateType::kXor2:
      clause({mk_lit(o, true), mk_lit(x[0]), mk_lit(x[1])});
      clause({mk_lit(o, true), mk_lit(x[0], true), mk_lit(x[1], true)});
      clause({mk_lit(o), mk_lit(x[0], true), mk_lit(x[1])});
      clause({mk_lit(o), mk_lit(x[0]), mk_lit(x[1], true)});
      return;
    case GateType::kXnor2:
      clause({mk_lit(o), mk_lit(x[0]), mk_lit(x[1])});
      clause({mk_lit(o), mk_lit(x[0], true), mk_lit(x[1], true)});
      clause({mk_lit(o, true), mk_lit(x[0], true), mk_lit(x[1])});
      clause({mk_lit(o, true), mk_lit(x[0]), mk_lit(x[1], true)});
      return;
    default: {
      // Complex cells (AOI/OAI): truth-table expansion against the
      // simulator's own gate function — one clause per input minterm.
      std::vector<Lit> lits;
      for (std::uint32_t m = 0; m < (1u << n); ++m) {
        lits.clear();
        for (int i = 0; i < n; ++i)
          lits.push_back(mk_lit(x[i], ((m >> i) & 1u) != 0));
        lits.push_back(mk_lit(o, !logic::gate_eval(t, m)));
        clause(lits);
      }
      return;
    }
  }
}

}  // namespace obd::atpg::sat
