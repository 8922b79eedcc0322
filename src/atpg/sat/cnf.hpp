// CNF encoding of good/faulty circuit pairs for the SAT ATPG backend.
//
// The encoding mirrors the PODEM engine's semantics exactly (the faulty
// copy podem.cpp's Engine maintains, which Circuit::eval3 with a forced net
// evaluates in full): the faulty circuit is the good circuit with one net
// replaced wholesale by a constant, so the faulty copy only needs fresh
// variables for that net's transitive fanout cone — every other net shares
// the good copy's variable. A one-sided miter then asserts that some
// primary output inside the cone differs between the copies.
//
// The incremental session (incremental.hpp) also adds Larrabee's
// sensitized-path ("D-chain") clauses to each cone: a fresh s_n per cone
// net with s_n -> (good_n != faulty_n), s_n -> OR(s of its fanout gates'
// outputs) for every non-PO cone net, and the unit s_forced. They say
// directly that a detecting assignment has a path of differing nets from
// the forced net to a PO, which CDCL would otherwise rediscover blocked
// path by blocked path. The fresh single-pair path does not use them.
//
// Gate consistency clauses use the hand-minimized standard forms for the
// simple cells (the classic Tseitin shapes) and a truth-table expansion
// against logic::gate_eval for the complex AOI/OAI cells — at most 16
// clauses for a 4-input gate, and correct by construction against the
// simulator (tests/test_sat_atpg.cpp checks every gate type exhaustively).
#pragma once

#include <vector>

#include "atpg/sat/solver.hpp"
#include "logic/circuit.hpp"

namespace obd::atpg::sat {

/// One circuit copy's net -> solver-variable map (kNoSatVar where the copy
/// has no variable of its own — for a faulty copy, nets outside the cone).
inline constexpr Var kNoSatVar = -1;

struct NetVars {
  std::vector<Var> var;  // indexed by NetId

  Var of(logic::NetId n) const { return var[static_cast<std::size_t>(n)]; }
};

class CnfEncoder {
 public:
  CnfEncoder(const logic::Circuit& c, Solver& s) : c_(c), s_(s) {}

  /// Fresh variables for every net plus consistency clauses for every
  /// gate: one fault-free circuit copy (one scan frame).
  NetVars encode_good();

  /// The faulty companion of `good`: fresh variables only for `forced` and
  /// its transitive fanout, with the forced variable unit-pinned to
  /// `forced_value` (the driver's clauses are intentionally absent — the
  /// net is replaced, not overridden). Cone gates read good variables for
  /// their side inputs.
  NetVars encode_faulty(const NetVars& good, logic::NetId forced,
                        bool forced_value);

  /// One-sided miter over the primary outputs the faulty cone reaches:
  /// asserts at least one differs between the copies. Returns false when
  /// the cone reaches no PO — the difference is structurally unobservable
  /// and the instance is untestable without solving.
  bool assert_po_difference(const NetVars& good, const NetVars& faulty);

  /// Sensitized-path clauses for the cone of `forced` (see the header
  /// comment). Equisatisfiable with the miter alone: side inputs outside
  /// the cone are shared by both copies, so every differing cone net other
  /// than `forced` has a differing cone input, and any detecting assignment
  /// extends to these clauses by setting s along one differing path from
  /// `forced` to a PO. Only the implication s_n -> diff is stated; a
  /// differing net off that path (a dangling one, say) keeps s_n false.
  void assert_sensitized_path(const NetVars& good, const NetVars& faulty,
                              logic::NetId forced);

  /// Unit-pins net `n` of a copy to `value`.
  void pin(const NetVars& nv, logic::NetId n, bool value);

  /// Consistency clauses for one gate over solver variables.
  void encode_gate(logic::GateType t, Var out, const Var* ins);

  /// Every clause emitted while a guard is set gets the literal appended —
  /// the standard activation-literal trick: with `guard` an activation
  /// variable's *negation*, the clauses are inert until the solver assumes
  /// the activation variable true. Lets one persistent solver hold many
  /// faulty-cone encodings side by side (see SatSession).
  void set_guard(Lit guard) { guard_ = guard; }
  void clear_guard() { guard_ = -1; }

 private:
  /// All clause emission funnels through here so the guard applies
  /// uniformly (including the forced-net pin inside encode_faulty).
  void clause(std::vector<Lit> lits);

  const logic::Circuit& c_;
  Solver& s_;
  Lit guard_ = -1;
};

}  // namespace obd::atpg::sat
