// Test conditions of the three fault models as constrained searches: the one
// place the paper's Sec. 4 excitation rule lives. PODEM (generate_test),
// the fresh SAT solve (sat::sat_generate_test), the incremental session
// (sat::SatSession::generate) and the LOC scan generator all consume the
// goal list goals_of() returns, in order, and stop at the first goal that
// yields a test.
//
// The rule is derived once per process: obd_cell() holds one read-only
// table per primitive cell type, built from the cell's transistor network
// by core/excitation.hpp (the paper derives a NAND's conditions once, at
// the gate level, and then runs ordinary ATPG). Fault enumeration, OBD
// collapsing, goals_of and the fault simulator's bit-sliced excitation all
// read it; the legacy simulators and scan verification keep calling
// core::excites_obd, so they stay an independent oracle.
//
// OBD flow (Sec. 4 of the paper): for a fault on transistor t of gate G,
// enumerate the gate-local excitation pairs (lv1 -> lv2) of t's table
// entry. Each pair is one goal:
//   frame 2: G's inputs pinned to lv2 and G's output stuck (in the faulty
//            circuit) at its *previous* value out(lv1); the difference must
//            reach a primary output. This models the gross-delay view of
//            the slow transition.
//   frame 1: independent justification of G's inputs to lv1.
// Both frames are plain combinational searches, which is the paper's
// complexity claim: OBD TPG costs the same as stuck-at TPG per frame.
//
// The classical transition-fault goal is identical minus the gate-input
// pinning: any (v1, v2) toggling G's output will do, which is exactly why
// transition test sets can miss input-specific (PMOS) OBD defects. A
// stuck-at goal is the fault frame alone (one vector, applied as v1 == v2).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "atpg/faults.hpp"
#include "atpg/podem.hpp"
#include "cells/harness.hpp"

namespace obd::atpg {

/// The OBD facts of one transistor of a primitive cell.
struct ObdTransistor {
  cells::TransistorRef transistor;
  /// Exciting (v1 -> v2) pairs, in core::obd_excitations order.
  std::vector<cells::TwoVector> excitations;
  /// Bit v2 of mask[v1] is set when (v1 -> v2) excites the defect.
  std::array<std::uint16_t, 16> mask{};
  /// Equal for two transistors of a cell exactly when their excitation sets
  /// are; the empty set is kNoExcitation in every cell.
  int class_id = 0;

  static constexpr int kNoExcitation = 0;
};

/// One primitive cell type's OBD table.
struct ObdCell {
  /// In CellTopology::transistors() order, which fixes the fault order.
  std::vector<ObdTransistor> transistors;
  /// Bit v is the cell output under inputs v (input k as bit k).
  std::uint16_t output = 0;

  bool output_at(std::uint32_t v) const { return ((output >> v) & 1u) != 0; }
  /// `t`'s facts; a transistor the cell lacks has the empty set.
  const ObdTransistor& at(const cells::TransistorRef& t) const;
};

/// The table of gate type `t`, built on first use; nullptr for a composite
/// gate (no gate_topology, no OBD site).
const ObdCell* obd_cell(logic::GateType t);

/// The facts of `site`'s transistor; the empty set on a composite gate or
/// a transistor its cell lacks.
const ObdTransistor& obd_facts(const Circuit& c, const ObdFaultSite& site);

/// One frame's obligations: required good-circuit net values and, for the
/// fault frame, a net forced in the faulty circuit whose difference must
/// reach a primary output.
struct FrameGoal {
  std::vector<NetConstraint> constraints;
  std::optional<StuckFault> fault;  // forced net + value (fault frame only)

  bool operator==(const FrameGoal&) const = default;
};

/// One candidate test: the fault (capture) frame and, for the two-vector
/// models, the justify (launch) frame. Without a justify frame the goal is
/// single-frame and its test applies the fault frame's vector twice.
struct TwoFrameGoal {
  FrameGoal fault_frame;
  std::optional<FrameGoal> justify_frame;
};

/// One goal per exciting transition of the site's transistor, in the
/// order of its obd_cell() entry; none for a gate without a gate_topology
/// (a composite gate has no OBD site).
std::vector<TwoFrameGoal> goals_of(const Circuit& c, const ObdFaultSite& site);
/// One goal: the net reaches its final value while the faulty circuit
/// holds the old one, after a frame-1 vector that sets the old value.
std::vector<TwoFrameGoal> goals_of(const Circuit& c,
                                   const TransitionFault& fault);
/// One single-frame goal: activate and propagate the stuck net.
std::vector<TwoFrameGoal> goals_of(const Circuit& c, const StuckFault& fault);

}  // namespace obd::atpg
