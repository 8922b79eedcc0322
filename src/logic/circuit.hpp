// Combinational circuit graph: named nets, single-driver gates, topological
// evaluation in 2- and 3-valued logic.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "logic/gate.hpp"
#include "logic/inputvec.hpp"

namespace obd::logic {

using NetId = std::int32_t;
inline constexpr NetId kNoNet = -1;

struct Gate {
  GateType type;
  std::string name;
  std::vector<NetId> inputs;
  NetId output = kNoNet;
};

/// A combinational netlist. Nets are created by name; every non-PI net must
/// be driven by exactly one gate.
class Circuit {
 public:
  explicit Circuit(std::string name = "circuit") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // --- Construction --------------------------------------------------------
  /// Gets or creates a net.
  NetId net(const std::string& name);
  /// Declares a net as primary input.
  NetId add_input(const std::string& name);
  /// Declares an existing net as primary output.
  void mark_output(NetId n);
  /// Adds a gate; input arity must match the gate type.
  /// Returns the gate index.
  int add_gate(GateType type, const std::string& name,
               const std::vector<NetId>& inputs, NetId output);

  // --- Structure -----------------------------------------------------------
  std::size_t num_nets() const { return net_names_.size(); }
  std::size_t num_gates() const { return gates_.size(); }
  const std::vector<Gate>& gates() const { return gates_; }
  const Gate& gate(int idx) const { return gates_[static_cast<std::size_t>(idx)]; }
  const std::vector<NetId>& inputs() const { return inputs_; }
  const std::vector<NetId>& outputs() const { return outputs_; }
  const std::string& net_name(NetId n) const {
    return net_names_[static_cast<std::size_t>(n)];
  }
  NetId find_net(const std::string& name) const;
  /// Index of the gate driving a net; -1 for PIs/undriven nets.
  int driver_of(NetId n) const { return driver_[static_cast<std::size_t>(n)]; }
  /// Gate indices that read a net.
  const std::vector<int>& fanout_of(NetId n) const {
    return fanouts_[static_cast<std::size_t>(n)];
  }

  /// Gate indices in topological order (inputs before outputs).
  /// Computed lazily; invalidated by add_gate.
  const std::vector<int>& topo_order() const;
  /// Logic level of each gate (1 + max level of driving gates; gates fed
  /// only by PIs have level 1). Paper's "logic depth".
  std::vector<int> gate_levels() const;
  /// Maximum gate level.
  int depth() const;
  /// The stem of a net's fanout-free region (FFR). A stem is a PO, or a net
  /// whose fanout count is not 1 (a gate reading the net on two pins counts
  /// twice); it is its own stem. Any other net feeds exactly one gate pin,
  /// and its stem is that gate's output's stem, so a change at the net
  /// reaches the rest of the circuit only through its stem. Built with the
  /// cone table.
  NetId ffr_stem(NetId n) const;
  /// Transitive-fanout gates of a stem (every gate whose value can depend on
  /// it), sorted by (gate level, topological rank) — a topological order in
  /// which a change at the stem reaches each gate only after all of its cone
  /// predecessors. Empty for a non-stem, whose cone is its chain (the gates
  /// from it to its stem) followed by its stem's cone. Built for every stem
  /// in one pass on first use and cached like topo_order(); invalidated by
  /// add_gate and mark_output. The first call of this or ffr_stem writes
  /// the cache, so make it on one thread before sharing the circuit across
  /// threads (the fault-sim engine's constructor does); later calls only
  /// read.
  const std::vector<int>& fanout_cone(NetId n) const;

  /// Checks structural sanity: every net driven at most once, every gate
  /// input driven or a PI, no combinational cycles. Returns an empty string
  /// when valid, else a diagnostic.
  std::string validate() const;

  // --- Simulation ----------------------------------------------------------
  /// Two-valued evaluation: bit i of `pi_values` is the value of PI i (in
  /// the order they were declared; any width — InputVec converts implicitly
  /// from a uint64_t for circuits of up to 64 PIs). Returns per-net values.
  std::vector<bool> eval(const InputVec& pi_values) const;
  /// PO values only, packed (bit i = output i), any PO count.
  InputVec eval_outputs(const InputVec& pi_values) const;
  /// Packs an existing per-net valuation into the PO vector (bit i =
  /// output i) — the shared tail of eval_outputs and the simulators that
  /// compute per-net values themselves.
  InputVec pack_outputs(const std::vector<bool>& net_values) const;
  /// Three-valued (Kleene) evaluation from explicit per-PI values; PIs
  /// beyond `pi_values.size()` and undriven nets are X. Optionally forces
  /// one net (fault injection) as eval_words does: a forced gate output, or
  /// a forced PI that has a value in `pi_values`, takes `forced_value`, and
  /// every other net is computed from its inputs — the faulty-circuit
  /// semantics of PODEM and the SAT encoder.
  std::vector<Tri> eval3(const std::vector<Tri>& pi_values,
                         NetId forced_net = kNoNet,
                         Tri forced_value = Tri::kX) const;

  /// Bit-parallel evaluation: 64 independent patterns at once. Word i of
  /// `pi_words` carries 64 values of PI i (bit k = pattern k). Optionally
  /// forces one net to a fixed word (fault injection): the forced net's
  /// driver output is replaced wholesale. The forced word is per-lane, so
  /// all 64 lanes carry real, independent patterns.
  std::vector<std::uint64_t> eval_words(
      const std::vector<std::uint64_t>& pi_words, NetId forced_net = kNoNet,
      std::uint64_t forced_value = 0) const;

  /// Lane-strided wide evaluation: 64*lane_words independent patterns at
  /// once. PI i's words live at pi_words[i*lane_words .. i*lane_words+W),
  /// and per-net results land at values[net*lane_words ..] (values is
  /// resized to num_nets()*lane_words). Word w of every net is exactly what
  /// eval_words would compute from word w of each PI — wide simulation is
  /// bit-identical to W narrow passes.
  void eval_wide_into(const std::vector<std::uint64_t>& pi_words,
                      std::size_t lane_words,
                      std::vector<std::uint64_t>& values) const;

  /// Gate-local input bits for a gate under a per-net valuation.
  std::uint32_t gate_input_bits(int gate_idx,
                                const std::vector<bool>& net_values) const;

 private:
  std::string name_;
  std::vector<std::string> net_names_;
  std::unordered_map<std::string, NetId> net_ids_;
  std::vector<Gate> gates_;
  std::vector<NetId> inputs_;
  std::vector<NetId> outputs_;
  std::vector<int> driver_;
  std::vector<std::vector<int>> fanouts_;
  mutable std::vector<int> topo_cache_;
  mutable bool topo_valid_ = false;
  // ffr_stem() and fanout_cone() per net; stale whenever their size is not
  // num_nets().
  mutable std::vector<NetId> stem_cache_;
  mutable std::vector<std::vector<int>> cone_cache_;
  void build_cones() const;
};

/// Rewrites composite gates (BUF/AND/OR/XOR/XNOR) into primitive CMOS gates
/// (INV/NAND) so that every gate carries OBD fault sites. Net names are
/// preserved; helper nets get a "_d<k>" suffix.
Circuit decompose_composites(const Circuit& c);

}  // namespace obd::logic
