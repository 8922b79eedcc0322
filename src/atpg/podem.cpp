#include "atpg/podem.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <queue>

namespace obd::atpg {
namespace {

using logic::Gate;
using logic::Tri;

/// One PODEM search (see podem.hpp). Invariant after every imply(): good_,
/// and faulty_ on the forced net's cone, hold exactly what a full 3-valued
/// evaluation of the current PI assignment gives.
class Engine {
 public:
  Engine(const Circuit& c, std::vector<NetConstraint> constraints,
         std::optional<StuckFault> fault, bool require_propagation,
         const PodemOptions& opt)
      : c_(c),
        topo_(c.topo_order()),
        constraints_(std::move(constraints)),
        fault_(fault),
        require_propagation_(require_propagation),
        opt_(opt),
        pi_(c.inputs().size(), Tri::kX),
        good_(c.num_nets(), Tri::kX),
        faulty_(c.num_nets(), Tri::kX),
        in_cone_(c.num_nets(), 0),
        pi_index_(c.num_nets(), -1),
        topo_pos_(c.num_gates(), -1),
        queued_(c.num_gates(), 0) {
    for (std::size_t p = 0; p < topo_.size(); ++p)
      topo_pos_[static_cast<std::size_t>(topo_[p])] = static_cast<int>(p);
    for (std::size_t i = 0; i < c.inputs().size(); ++i) {
      int& slot = pi_index_[static_cast<std::size_t>(c.inputs()[i])];
      if (slot < 0) slot = static_cast<int>(i);
    }
    if (fault_) seed_cone();
    if (opt_.time_budget_s > 0.0)
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(opt_.time_budget_s));
  }

  PodemResult run() {
    PodemResult result;
    imply();
    for (;;) {
      if (conflicted()) {
        if (!backtrack()) {
          result.status = aborted_ ? PodemStatus::kAborted
                                   : PodemStatus::kUntestable;
          break;
        }
        continue;
      }
      if (satisfied()) {
        result.status = PodemStatus::kFound;
        result.vector = make_vector();
        break;
      }
      const auto obj = pick_objective();
      if (!obj) {
        // No way to make progress from this state: treat as a conflict.
        if (!backtrack()) {
          result.status = aborted_ ? PodemStatus::kAborted
                                   : PodemStatus::kUntestable;
          break;
        }
        continue;
      }
      const auto pi_choice = backtrace(obj->first, obj->second);
      if (!pi_choice) {
        if (!backtrack()) {
          result.status = aborted_ ? PodemStatus::kAborted
                                   : PodemStatus::kUntestable;
          break;
        }
        continue;
      }
      decisions_.push_back(Decision{pi_choice->first, pi_choice->second, false});
      assign(pi_choice->first, logic::tri_of(pi_choice->second));
      imply();
    }
    if (result.status == PodemStatus::kAborted) result.reason = reason_;
    result.backtracks = backtracks_;
    result.implications = implications_;
    return result;
  }

 private:
  struct Decision {
    std::size_t pi;
    bool value;
    bool flipped;
  };

  /// Marks the forced net's fanout cone and seeds the faulty copy there:
  /// the forced value is pinned and its fanout queued, so the first
  /// imply() settles the cone under all-X inputs. Cone gates are kept in
  /// gate-index order, the order the D-frontier is reported in.
  void seed_cone() {
    const NetId forced = fault_->net;
    const auto fi = static_cast<std::size_t>(forced);
    in_cone_[fi] = 1;
    faulty_[fi] = logic::tri_of(fault_->value);
    std::vector<NetId> stack{forced};
    while (!stack.empty()) {
      const NetId n = stack.back();
      stack.pop_back();
      for (int g : c_.fanout_of(n)) {
        const NetId out = c_.gate(g).output;
        if (in_cone_[static_cast<std::size_t>(out)]) continue;
        in_cone_[static_cast<std::size_t>(out)] = 1;
        cone_gates_.push_back(g);
        stack.push_back(out);
      }
    }
    std::sort(cone_gates_.begin(), cone_gates_.end());
    schedule_fanout(forced);
  }

  /// Sets PI `i` and queues its fanout when the value actually changes.
  void assign(std::size_t i, Tri v) {
    if (pi_[i] == v) return;
    pi_[i] = v;
    const NetId n = c_.inputs()[i];
    good_[static_cast<std::size_t>(n)] = v;
    schedule_fanout(n);
  }

  void schedule_fanout(NetId n) {
    for (int g : c_.fanout_of(n)) {
      const auto gi = static_cast<std::size_t>(g);
      if (queued_[gi] || topo_pos_[gi] < 0) continue;
      queued_[gi] = 1;
      events_.push(topo_pos_[gi]);
    }
  }

  /// Drains the event queue. Popping in topological position means every
  /// gate is evaluated at most once, after all of its changed inputs.
  void imply() {
    ++implications_;
    Tri ins[8];
    while (!events_.empty()) {
      const int g = topo_[static_cast<std::size_t>(events_.top())];
      events_.pop();
      queued_[static_cast<std::size_t>(g)] = 0;
      const Gate& gate = c_.gate(g);
      const auto out = static_cast<std::size_t>(gate.output);
      bool changed = false;
      for (std::size_t k = 0; k < gate.inputs.size(); ++k)
        ins[k] = good_of(gate.inputs[k]);
      const Tri gv = logic::gate_eval3(gate.type, ins);
      if (gv != good_[out]) {
        good_[out] = gv;
        changed = true;
      }
      if (in_cone_[out] && gate.output != fault_->net) {
        for (std::size_t k = 0; k < gate.inputs.size(); ++k)
          ins[k] = faulty_of(gate.inputs[k]);
        const Tri fv = logic::gate_eval3(gate.type, ins);
        if (fv != faulty_[out]) {
          faulty_[out] = fv;
          changed = true;
        }
      }
      if (changed) schedule_fanout(gate.output);
    }
    frontier_valid_ = false;
  }

  Tri good_of(NetId n) const { return good_[static_cast<std::size_t>(n)]; }
  Tri faulty_of(NetId n) const {
    const auto i = static_cast<std::size_t>(n);
    return in_cone_[i] ? faulty_[i] : good_[i];
  }

  /// Determined differing value (a D or D') on the net.
  bool diff(NetId n) const {
    const Tri g = good_of(n);
    const Tri f = faulty_of(n);
    return g != Tri::kX && f != Tri::kX && g != f;
  }

  bool activated() const {
    return fault_ && good_of(fault_->net) != Tri::kX &&
           good_of(fault_->net) != logic::tri_of(fault_->value);
  }

  bool po_diff() const {
    for (NetId po : c_.outputs())
      if (diff(po)) return true;
    return false;
  }

  /// D-frontier: gates with a differing input whose output is not yet
  /// fully determined-equal. A difference exists only inside the forced
  /// net's cone, so only cone gates are scanned, once per implication.
  const std::vector<int>& d_frontier() {
    if (frontier_valid_) return frontier_;
    frontier_.clear();
    for (int gi : cone_gates_) {
      const Gate& g = c_.gate(gi);
      if (diff(g.output)) continue;
      const bool blocked = good_of(g.output) != Tri::kX &&
                           faulty_of(g.output) != Tri::kX;
      if (blocked) continue;
      for (NetId in : g.inputs)
        if (diff(in)) {
          frontier_.push_back(gi);
          break;
        }
    }
    frontier_valid_ = true;
    return frontier_;
  }

  bool conflicted() {
    for (const auto& k : constraints_) {
      const Tri v = good_of(k.net);
      if (v != Tri::kX && v != logic::tri_of(k.value)) return true;
    }
    if (fault_) {
      const Tri v = good_of(fault_->net);
      if (v != Tri::kX && v == logic::tri_of(fault_->value))
        return true;  // activation impossible
      if (require_propagation_ && activated() && !po_diff() &&
          d_frontier().empty())
        return true;  // difference can no longer reach a PO
    }
    return false;
  }

  bool satisfied() const {
    for (const auto& k : constraints_)
      if (good_of(k.net) != logic::tri_of(k.value)) return false;
    if (fault_) {
      if (!activated()) return false;
      if (require_propagation_ && !po_diff()) return false;
    }
    return true;
  }

  /// Next (net, value) goal.
  std::optional<std::pair<NetId, bool>> pick_objective() {
    for (const auto& k : constraints_)
      if (good_of(k.net) == Tri::kX) return std::make_pair(k.net, k.value);
    if (fault_ && good_of(fault_->net) == Tri::kX)
      return std::make_pair(fault_->net, !fault_->value);
    if (fault_ && require_propagation_ && !po_diff()) {
      for (int gi : d_frontier()) {
        const Gate& g = c_.gate(gi);
        for (std::size_t k = 0; k < g.inputs.size(); ++k) {
          const NetId in = g.inputs[k];
          if (good_of(in) != Tri::kX) continue;
          // Pick a value for this input that keeps the difference alive.
          for (bool v : {true, false}) {
            if (transparent_with(gi, k, v)) return std::make_pair(in, v);
          }
        }
      }
    }
    return std::nullopt;
  }

  /// Could gate `gi` still produce a differing output if input slot k is
  /// set to v? (3-valued check on both circuits.)
  bool transparent_with(int gi, std::size_t slot, bool v) const {
    const Gate& g = c_.gate(gi);
    Tri gin[8];
    Tri fin[8];
    for (std::size_t k = 0; k < g.inputs.size(); ++k) {
      gin[k] = good_of(g.inputs[k]);
      fin[k] = faulty_of(g.inputs[k]);
      if (k == slot) {
        gin[k] = logic::tri_of(v);
        fin[k] = logic::tri_of(v);
      }
    }
    const Tri og = logic::gate_eval3(g.type, gin);
    const Tri of = logic::gate_eval3(g.type, fin);
    // Blocked only when both sides are determined and equal.
    return !(og != Tri::kX && of != Tri::kX && og == of);
  }

  /// Walks the objective back to an unassigned PI. Each step moves to an
  /// input of the current net's driver, so on an acyclic (validate()d)
  /// circuit the walk ends within depth() steps. It must not be capped: a
  /// cap below the depth reports reachable objectives as conflicts.
  std::optional<std::pair<std::size_t, bool>> backtrace(NetId net,
                                                        bool value) const {
    NetId n = net;
    bool v = value;
    for (;;) {
      const int drv = c_.driver_of(n);
      if (drv < 0) {
        // PI (or floating net: then it is not a PI and cannot be set).
        const int pi = pi_index_[static_cast<std::size_t>(n)];
        if (pi < 0) return std::nullopt;
        return std::make_pair(static_cast<std::size_t>(pi), v);
      }
      const Gate& g = c_.gate(drv);
      // Choose an undetermined input and a value that can still produce v.
      bool advanced = false;
      for (std::size_t k = 0; k < g.inputs.size() && !advanced; ++k) {
        if (good_of(g.inputs[k]) != Tri::kX) continue;
        for (bool cand : {false, true}) {
          if (can_output(drv, k, cand, v)) {
            n = g.inputs[k];
            v = cand;
            advanced = true;
            break;
          }
        }
      }
      if (!advanced) return std::nullopt;
    }
  }

  /// With input slot `k` of gate `gi` set to `cand` (and other X inputs
  /// free), can the gate output be `target`?
  bool can_output(int gi, std::size_t slot, bool cand, bool target) const {
    const Gate& g = c_.gate(gi);
    // Enumerate completions of X inputs.
    std::uint32_t fixed = 0;
    std::uint32_t x_mask = 0;
    for (std::size_t k = 0; k < g.inputs.size(); ++k) {
      const Tri t = (k == slot) ? logic::tri_of(cand) : good_of(g.inputs[k]);
      if (t == Tri::k1) fixed |= (1u << k);
      else if (t == Tri::kX) x_mask |= (1u << k);
    }
    for (std::uint32_t sub = x_mask;; sub = (sub - 1) & x_mask) {
      if (logic::gate_eval(g.type, fixed | sub) == target) return true;
      if (sub == 0) break;
    }
    return false;
  }

  /// Flips the newest unflipped decision, resetting the flipped ones above
  /// it to X. The resets and the flip are queued as PI events and settled
  /// by one imply(), which replaces an undo trail.
  bool backtrack() {
    while (!decisions_.empty()) {
      Decision& d = decisions_.back();
      if (!d.flipped) {
        d.flipped = true;
        ++backtracks_;
        if (backtracks_ > opt_.max_backtracks) {
          aborted_ = true;
          reason_ = AbortReason::kBacktracks;
          return false;
        }
        // One clock read per backtrack costs tens of nanoseconds, small
        // next to the fanout propagation of the resets and the flip.
        if (deadline_ && std::chrono::steady_clock::now() > *deadline_) {
          aborted_ = true;
          reason_ = AbortReason::kTime;
          return false;
        }
        assign(d.pi, logic::tri_of(!d.value));
        imply();
        return true;
      }
      assign(d.pi, Tri::kX);
      decisions_.pop_back();
    }
    imply();
    return false;
  }

  TestVector make_vector() const {
    TestVector v;
    for (std::size_t i = 0; i < pi_.size(); ++i) {
      if (pi_[i] == Tri::kX) continue;
      v.care_mask.set_bit(i);
      if (pi_[i] == Tri::k1) v.bits.set_bit(i);
    }
    return v;
  }

  const Circuit& c_;
  const std::vector<int>& topo_;
  std::vector<NetConstraint> constraints_;
  std::optional<StuckFault> fault_;
  bool require_propagation_;
  PodemOptions opt_;
  std::vector<Tri> pi_;
  std::vector<Tri> good_;
  /// Faulty values, meaningful only where in_cone_ is set.
  std::vector<Tri> faulty_;
  std::vector<std::uint8_t> in_cone_;
  /// Net -> PI index (-1 for non-PIs), for backtrace.
  std::vector<int> pi_index_;
  /// Gate -> position in topo_ (-1 for gates outside it).
  std::vector<int> topo_pos_;
  std::vector<std::uint8_t> queued_;
  /// Pending gate evaluations, as topological positions, lowest first.
  std::priority_queue<int, std::vector<int>, std::greater<>> events_;
  /// Forced net's fanout-cone gates, ascending gate index.
  std::vector<int> cone_gates_;
  std::vector<int> frontier_;
  bool frontier_valid_ = false;
  std::vector<Decision> decisions_;
  long backtracks_ = 0;
  long implications_ = 0;
  bool aborted_ = false;
  AbortReason reason_ = AbortReason::kNone;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
};

}  // namespace

PodemResult podem_stuck_at(const Circuit& c, const StuckFault& fault,
                           const PodemOptions& opt) {
  Engine e(c, {}, fault, /*require_propagation=*/true, opt);
  return e.run();
}

PodemResult podem_justify(const Circuit& c,
                          const std::vector<NetConstraint>& constraints,
                          const PodemOptions& opt) {
  Engine e(c, constraints, std::nullopt, false, opt);
  return e.run();
}

PodemResult podem_constrained_fault(
    const Circuit& c, const std::vector<NetConstraint>& constraints,
    NetId forced, bool forced_value, const PodemOptions& opt) {
  Engine e(c, constraints, StuckFault{forced, forced_value},
           /*require_propagation=*/true, opt);
  return e.run();
}

}  // namespace obd::atpg
