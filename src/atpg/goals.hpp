// Test conditions of the three fault models as constrained searches: the one
// place the paper's Sec. 4 excitation rule lives. PODEM (generate_test),
// the fresh SAT solve (sat::sat_generate_test), the incremental session
// (sat::SatSession::generate) and the LOC scan generator all consume the
// goal list goals_of() returns, in order, and stop at the first goal that
// yields a test.
//
// OBD flow (Sec. 4 of the paper): for a fault on transistor t of gate G,
// enumerate the gate-local excitation pairs (lv1 -> lv2) derived from the
// cell topology (core/excitation.hpp). Each pair is one goal:
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

#include <optional>
#include <vector>

#include "atpg/faults.hpp"
#include "atpg/podem.hpp"

namespace obd::atpg {

/// One frame's obligations: required good-circuit net values and, for the
/// fault frame, a net forced in the faulty circuit whose difference must
/// reach a primary output.
struct FrameGoal {
  std::vector<NetConstraint> constraints;
  std::optional<StuckFault> fault;  // forced net + value (fault frame only)
};

/// One candidate test: the fault (capture) frame and, for the two-vector
/// models, the justify (launch) frame. Without a justify frame the goal is
/// single-frame and its test applies the fault frame's vector twice.
struct TwoFrameGoal {
  FrameGoal fault_frame;
  std::optional<FrameGoal> justify_frame;
};

/// One goal per exciting transition of the site's transistor, in the
/// order core/excitation.hpp enumerates them; none for a gate without a
/// gate_topology (a composite gate has no OBD site).
std::vector<TwoFrameGoal> goals_of(const Circuit& c, const ObdFaultSite& site);
/// One goal: the net reaches its final value while the faulty circuit
/// holds the old one, after a frame-1 vector that sets the old value.
std::vector<TwoFrameGoal> goals_of(const Circuit& c,
                                   const TransitionFault& fault);
/// One single-frame goal: activate and propagate the stuck net.
std::vector<TwoFrameGoal> goals_of(const Circuit& c, const StuckFault& fault);

}  // namespace obd::atpg
