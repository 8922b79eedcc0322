// Gate-level primitives.
//
// Two families:
//  - primitive static-CMOS gates (INV/NAND/NOR/AOI/OAI) that correspond 1:1
//    to a cells::CellTopology; OBD faults live on their transistors;
//  - composite conveniences (BUF/AND/OR/XOR/XNOR) used by generators and
//    benchmarks; decompose_composites() lowers them to primitives before
//    OBD fault analysis.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cells/topology.hpp"

namespace obd::logic {

enum class GateType {
  kBuf,
  kInv,
  kNand2,
  kNand3,
  kNand4,
  kNor2,
  kNor3,
  kNor4,
  kAnd2,
  kOr2,
  kXor2,
  kXnor2,
  kAoi21,
  kAoi22,
  kOai21,
};

/// Number of inputs of a gate type.
int gate_arity(GateType t);

/// Printable name ("NAND2", ...).
const char* gate_type_name(GateType t);

/// Boolean function: bit i of `inputs` is the value of input i.
bool gate_eval(GateType t, std::uint32_t inputs);

/// Three-valued logic value.
enum class Tri : std::uint8_t { k0 = 0, k1 = 1, kX = 2 };

inline Tri tri_of(bool b) { return b ? Tri::k1 : Tri::k0; }

/// Three-valued gate evaluation (inputs as array of Tri).
Tri gate_eval3(GateType t, const Tri* inputs);

/// Bit-parallel gate evaluation: each word carries 64 independent patterns.
std::uint64_t gate_eval_words(GateType t, const std::uint64_t* inputs);

/// True for gates that map directly onto a CMOS cell (OBD faults defined).
bool is_primitive_cmos(GateType t);

/// The cell topology of a primitive gate; nullopt for composites.
std::optional<cells::CellTopology> gate_topology(GateType t);

}  // namespace obd::logic
