// Gate primitives and circuit graph mechanics.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "io/bench.hpp"
#include "logic/circuit.hpp"
#include "oracle_common.hpp"
#include "util/prng.hpp"

namespace obd::logic {
namespace {

TEST(GateEval, ArityAndNames) {
  EXPECT_EQ(gate_arity(GateType::kInv), 1);
  EXPECT_EQ(gate_arity(GateType::kNand3), 3);
  EXPECT_EQ(gate_arity(GateType::kAoi22), 4);
  EXPECT_STREQ(gate_type_name(GateType::kNor3), "NOR3");
}

TEST(GateEval, BooleanFunctions) {
  EXPECT_TRUE(gate_eval(GateType::kNand2, 0b01));
  EXPECT_FALSE(gate_eval(GateType::kNand2, 0b11));
  EXPECT_TRUE(gate_eval(GateType::kXor2, 0b01));
  EXPECT_FALSE(gate_eval(GateType::kXor2, 0b11));
  EXPECT_TRUE(gate_eval(GateType::kXnor2, 0b11));
  EXPECT_FALSE(gate_eval(GateType::kAoi21, 0b100));  // C=1 pulls low
  EXPECT_TRUE(gate_eval(GateType::kOai21, 0b000));
}

TEST(GateEval, PrimitiveMatchesTopologyEverywhere) {
  // Cross-check gate_eval against the transistor-level boolean model.
  for (GateType t : {GateType::kInv, GateType::kNand2, GateType::kNand3,
                     GateType::kNand4, GateType::kNor2, GateType::kNor3,
                     GateType::kNor4, GateType::kAoi21, GateType::kAoi22,
                     GateType::kOai21}) {
    const auto topo = gate_topology(t);
    ASSERT_TRUE(topo.has_value());
    const std::uint32_t limit = 1u << gate_arity(t);
    for (std::uint32_t v = 0; v < limit; ++v)
      EXPECT_EQ(gate_eval(t, v), topo->output(v))
          << gate_type_name(t) << " v=" << v;
  }
}

TEST(GateEval3, KnownInputsBehaveLikeBoolean) {
  const Tri in[2] = {Tri::k1, Tri::k0};
  EXPECT_EQ(gate_eval3(GateType::kNand2, in), Tri::k1);
  const Tri in2[2] = {Tri::k1, Tri::k1};
  EXPECT_EQ(gate_eval3(GateType::kNand2, in2), Tri::k0);
}

TEST(GateEval3, ControllingValueDominatesX) {
  const Tri in[2] = {Tri::k0, Tri::kX};
  EXPECT_EQ(gate_eval3(GateType::kNand2, in), Tri::k1);  // 0 controls NAND
  const Tri in2[2] = {Tri::k1, Tri::kX};
  EXPECT_EQ(gate_eval3(GateType::kNor2, in2), Tri::k0);  // 1 controls NOR
}

TEST(GateEval3, NonControllingXPropagates) {
  const Tri in[2] = {Tri::k1, Tri::kX};
  EXPECT_EQ(gate_eval3(GateType::kNand2, in), Tri::kX);
  const Tri in2[1] = {Tri::kX};
  EXPECT_EQ(gate_eval3(GateType::kInv, in2), Tri::kX);
}

TEST(GateEval3, XorAlwaysXWithAnyX) {
  const Tri in[2] = {Tri::k0, Tri::kX};
  EXPECT_EQ(gate_eval3(GateType::kXor2, in), Tri::kX);
}

TEST(Circuit, BuildAndEvalSmall) {
  Circuit c("t");
  const NetId a = c.add_input("a");
  const NetId b = c.add_input("b");
  const NetId n1 = c.net("n1");
  const NetId o = c.net("o");
  c.add_gate(GateType::kNand2, "g1", {a, b}, n1);
  c.add_gate(GateType::kInv, "g2", {n1}, o);
  c.mark_output(o);
  // o = a AND b.
  EXPECT_EQ(c.eval_outputs(0b00), 0u);
  EXPECT_EQ(c.eval_outputs(0b01), 0u);
  EXPECT_EQ(c.eval_outputs(0b10), 0u);
  EXPECT_EQ(c.eval_outputs(0b11), 1u);
  EXPECT_TRUE(c.validate().empty());
}

TEST(Circuit, TopoOrderRespectsDependencies) {
  Circuit c("t");
  const NetId a = c.add_input("a");
  const NetId n1 = c.net("n1");
  const NetId n2 = c.net("n2");
  // Add gates in reverse dependency order on purpose.
  c.add_gate(GateType::kInv, "g2", {n1}, n2);
  c.add_gate(GateType::kInv, "g1", {a}, n1);
  c.mark_output(n2);
  const auto& order = c.topo_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(c.gate(order[0]).name, "g1");
  EXPECT_EQ(c.gate(order[1]).name, "g2");
}

TEST(Circuit, LevelsAndDepth) {
  Circuit c("t");
  const NetId a = c.add_input("a");
  const NetId n1 = c.net("n1");
  const NetId n2 = c.net("n2");
  const NetId n3 = c.net("n3");
  c.add_gate(GateType::kInv, "g1", {a}, n1);
  c.add_gate(GateType::kInv, "g2", {n1}, n2);
  c.add_gate(GateType::kNand2, "g3", {a, n2}, n3);
  c.mark_output(n3);
  EXPECT_EQ(c.depth(), 3);
}

TEST(Circuit, ValidateCatchesDoubleDriver) {
  Circuit c("t");
  const NetId a = c.add_input("a");
  const NetId n1 = c.net("n1");
  c.add_gate(GateType::kInv, "g1", {a}, n1);
  c.add_gate(GateType::kInv, "g2", {a}, n1);
  EXPECT_FALSE(c.validate().empty());
}

TEST(Circuit, ValidateCatchesCycle) {
  Circuit c("t");
  const NetId a = c.add_input("a");
  const NetId n1 = c.net("n1");
  const NetId n2 = c.net("n2");
  c.add_gate(GateType::kNand2, "g1", {a, n2}, n1);
  c.add_gate(GateType::kInv, "g2", {n1}, n2);
  EXPECT_FALSE(c.validate().empty());
}

TEST(Circuit, Eval3FullySpecifiedMatchesEval) {
  Circuit c("t");
  const NetId a = c.add_input("a");
  const NetId b = c.add_input("b");
  const NetId o = c.net("o");
  c.add_gate(GateType::kNand2, "g", {a, b}, o);
  c.mark_output(o);
  for (std::uint64_t v = 0; v < 4; ++v) {
    const std::vector<Tri> pis{tri_of(v & 1), tri_of(v & 2)};
    const auto vals = c.eval3(pis);
    EXPECT_EQ(vals[static_cast<std::size_t>(o)] == Tri::k1,
              c.eval_outputs(v) == 1u);
  }
}

TEST(Circuit, Eval3ForcedNetMatchesEvalWords) {
  // eval3's forced net is the faulty-circuit semantics SAT cube lifting
  // judges cubes by. Unforced and with every net forced to 0 and to 1: a
  // fully specified PI vector gives eval_words' lane-0 value on every known
  // net, and X PIs give known values that every completion agrees with
  // (lanes 0-7 of one eval_words call are 8 random completions).
  util::Prng prng(0xe7a13);
  for (const Circuit& c : atpg::oracle::zoo()) {
    const std::size_t n_pi = c.inputs().size();
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<Tri> full(n_pi), partial(n_pi);
      std::vector<std::uint64_t> full_words(n_pi), fill_words(n_pi);
      for (std::size_t i = 0; i < n_pi; ++i) {
        full[i] = tri_of(prng.next_bool());
        full_words[i] = full[i] == Tri::k1 ? ~0ull : 0ull;
        const std::uint64_t r = prng.next_below(3);
        partial[i] = r == 2 ? Tri::kX : tri_of(r == 1);
        fill_words[i] = partial[i] == Tri::kX ? prng.next_u64()
                        : partial[i] == Tri::k1 ? ~0ull
                                                : 0ull;
      }
      for (NetId net = kNoNet; net < static_cast<NetId>(c.num_nets()); ++net) {
        for (const bool v : {false, true}) {
          if (net == kNoNet && v) continue;
          const Tri forced = net == kNoNet ? Tri::kX : tri_of(v);
          const std::uint64_t word = v ? ~0ull : 0ull;
          const auto exact = c.eval3(full, net, forced);
          const auto lanes = c.eval_words(full_words, net, word);
          const auto kleene = c.eval3(partial, net, forced);
          const auto fills = c.eval_words(fill_words, net, word);
          for (std::size_t n = 0; n < c.num_nets(); ++n) {
            if (exact[n] != Tri::kX) {
              ASSERT_EQ(exact[n] == Tri::k1, (lanes[n] & 1u) != 0)
                  << c.name() << " forced " << net << " net " << n;
            }
            if (kleene[n] == Tri::kX) continue;
            const std::uint64_t want = kleene[n] == Tri::k1 ? 0xffu : 0u;
            ASSERT_EQ(fills[n] & 0xffu, want)
                << c.name() << " forced " << net << " net " << n;
          }
        }
      }
    }
  }
}

TEST(Circuit, FanoutTracking) {
  Circuit c("t");
  const NetId a = c.add_input("a");
  const NetId n1 = c.net("n1");
  const NetId n2 = c.net("n2");
  c.add_gate(GateType::kInv, "g1", {a}, n1);
  c.add_gate(GateType::kInv, "g2", {a}, n2);
  EXPECT_EQ(c.fanout_of(a).size(), 2u);
  EXPECT_EQ(c.driver_of(n1), 0);
  EXPECT_EQ(c.driver_of(a), -1);
}

/// Every net's fanout cone found the slow way: a search over the fanout,
/// then a sort by (gate level, topological rank).
std::vector<std::vector<int>> searched_cones(const Circuit& c) {
  const std::vector<int> level = c.gate_levels();
  std::vector<int> rank(c.num_gates(), 0);
  for (std::size_t r = 0; r < c.topo_order().size(); ++r)
    rank[static_cast<std::size_t>(c.topo_order()[r])] = static_cast<int>(r);
  std::vector<std::vector<int>> cones(c.num_nets());
  for (std::size_t n = 0; n < c.num_nets(); ++n) {
    std::vector<bool> seen(c.num_gates(), false);
    std::vector<NetId> stack{static_cast<NetId>(n)};
    while (!stack.empty()) {
      const NetId net = stack.back();
      stack.pop_back();
      for (int g : c.fanout_of(net)) {
        if (seen[static_cast<std::size_t>(g)]) continue;
        seen[static_cast<std::size_t>(g)] = true;
        cones[n].push_back(g);
        stack.push_back(c.gate(g).output);
      }
    }
    std::sort(cones[n].begin(), cones[n].end(), [&](int a, int b) {
      const auto sa = static_cast<std::size_t>(a);
      const auto sb = static_cast<std::size_t>(b);
      return std::pair(level[sa], rank[sa]) < std::pair(level[sb], rank[sb]);
    });
  }
  return cones;
}

/// A net's whole fanout cone from the stem-only table: the gates of its
/// chain to its FFR stem, then the stem's cone.
std::vector<int> chain_then_stem_cone(const Circuit& c, NetId n) {
  const NetId stem = c.ffr_stem(n);
  std::vector<int> cone;
  for (NetId m = n; m != stem; m = c.gate(cone.back()).output)
    cone.push_back(c.fanout_of(m).front());
  const std::vector<int>& tail = c.fanout_cone(stem);
  cone.insert(cone.end(), tail.begin(), tail.end());
  return cone;
}

/// Every stem's cone, and every non-stem's chain followed by its stem's
/// cone, against the search; a stem is exactly a PO or a net whose fanout
/// count is not 1, and only stems have a table entry.
void expect_cones_match_search(const Circuit& c) {
  const auto ref = searched_cones(c);
  std::vector<bool> po(c.num_nets(), false);
  for (NetId o : c.outputs()) po[static_cast<std::size_t>(o)] = true;
  for (std::size_t n = 0; n < c.num_nets(); ++n) {
    const auto net = static_cast<NetId>(n);
    const NetId stem = c.ffr_stem(net);
    ASSERT_EQ(stem == net, po[n] || c.fanout_of(net).size() != 1)
        << c.name() << " net " << c.net_name(net);
    ASSERT_EQ(c.ffr_stem(stem), stem) << c.name() << " net " << c.net_name(net);
    if (stem == net) {
      ASSERT_EQ(c.fanout_cone(net), ref[n])
          << c.name() << " stem " << c.net_name(net);
    } else {
      ASSERT_TRUE(c.fanout_cone(net).empty())
          << c.name() << " net " << c.net_name(net);
      ASSERT_EQ(chain_then_stem_cone(c, net), ref[n])
          << c.name() << " net " << c.net_name(net);
    }
  }
}

TEST(Circuit, FanoutConeMatchesSearchAndSortOnCorpus) {
  for (const char* file : {"c432.bench", "c880.bench", "mul10.bench"}) {
    const io::BenchParseResult p =
        io::load_bench_file(std::string(OBD_CORPUS_DIR) + "/" + file);
    ASSERT_TRUE(p.ok) << file << ": " << p.error;
    expect_cones_match_search(p.circuit());
  }
  const io::BenchParseResult s =
      io::load_bench_file(std::string(OBD_CORPUS_DIR) + "/s1423.bench");
  ASSERT_TRUE(s.ok) << s.error;
  expect_cones_match_search(s.seq.scan_view());
  for (const Circuit& c : atpg::oracle::zoo()) expect_cones_match_search(c);
}

TEST(Circuit, FanoutConeOnEdgeShapes) {
  // A gate reading one net twice, a PI that is also a PO and feeds gates,
  // an undriven net, a net with no fanout, and reconvergent fanout.
  Circuit c("edges");
  const NetId a = c.add_input("a");
  const NetId b = c.add_input("b");
  const NetId u = c.net("u");  // never driven
  const NetId n0 = c.net("n0"), n1 = c.net("n1"), n2 = c.net("n2");
  const NetId n3 = c.net("n3"), n4 = c.net("n4");
  const NetId idle = c.net("idle");
  c.mark_output(a);
  const int g0 = c.add_gate(GateType::kNand2, "g0", {a, a}, n0);
  const int g1 = c.add_gate(GateType::kInv, "g1", {b}, n1);
  const int g2 = c.add_gate(GateType::kNor2, "g2", {n0, n1}, n2);
  const int g3 = c.add_gate(GateType::kNand2, "g3", {n0, u}, n3);
  const int g4 = c.add_gate(GateType::kNand2, "g4", {n2, n3}, n4);
  c.mark_output(n4);
  expect_cones_match_search(c);
  // Stems: a (a PO, read twice), n0 (two readers), n4 (a PO) and idle (no
  // fanout); b, u and the chains n1 -> n2 and n3 lie in n4's region.
  for (const NetId stem : {a, n0, n4, idle}) EXPECT_EQ(c.ffr_stem(stem), stem);
  for (const NetId inner : {b, u, n1, n2, n3}) EXPECT_EQ(c.ffr_stem(inner), n4);
  // Same-level gates (g2, g3) follow topological rank; compare members.
  const auto members = [&](NetId n) {
    std::vector<int> m = chain_then_stem_cone(c, n);
    std::sort(m.begin(), m.end());
    return m;
  };
  EXPECT_EQ(members(a), (std::vector<int>{g0, g2, g3, g4}));
  EXPECT_EQ(members(b), (std::vector<int>{g1, g2, g4}));
  EXPECT_EQ(members(u), (std::vector<int>{g3, g4}));
  EXPECT_EQ(c.fanout_cone(a).front(), g0);
  EXPECT_EQ(c.fanout_cone(a).back(), g4);
  EXPECT_TRUE(c.fanout_cone(b).empty());  // not a stem
  EXPECT_TRUE(c.fanout_cone(n4).empty());
  EXPECT_TRUE(c.fanout_cone(idle).empty());
}

TEST(Circuit, AddGateDropsFanoutCone) {
  Circuit c;
  const NetId a = c.add_input("a");
  const NetId b = c.add_input("b");
  const NetId x = c.net("x");
  const int g0 = c.add_gate(GateType::kNand2, "g0", {a, b}, x);
  c.mark_output(x);
  EXPECT_EQ(c.ffr_stem(a), x);
  EXPECT_EQ(c.fanout_cone(x), std::vector<int>{});
  EXPECT_EQ(chain_then_stem_cone(c, a), std::vector<int>{g0});
  // A second reader makes b a stem.
  const NetId y = c.net("y");
  const int g1 = c.add_gate(GateType::kNor2, "g1", {x, b}, y);
  const NetId z = c.net("z");
  const int g2 = c.add_gate(GateType::kInv, "g2", {y}, z);
  c.mark_output(z);
  EXPECT_EQ(c.ffr_stem(b), b);
  EXPECT_EQ(c.fanout_cone(b), (std::vector<int>{g0, g1, g2}));
  EXPECT_EQ(c.ffr_stem(a), x);
  EXPECT_EQ(chain_then_stem_cone(c, a), (std::vector<int>{g0, g1, g2}));
  EXPECT_EQ(c.fanout_cone(x), (std::vector<int>{g1, g2}));
  EXPECT_EQ(c.ffr_stem(y), z);
  expect_cones_match_search(c);
}

TEST(Circuit, MarkOutputMakesAStem) {
  Circuit c;
  const NetId a = c.add_input("a");
  const NetId y = c.net("y"), z = c.net("z");
  const int g0 = c.add_gate(GateType::kInv, "g0", {a}, y);
  const int g1 = c.add_gate(GateType::kInv, "g1", {y}, z);
  c.mark_output(z);
  EXPECT_EQ(c.ffr_stem(y), z);
  EXPECT_TRUE(c.fanout_cone(y).empty());
  c.mark_output(y);  // a PO in the middle of the chain
  EXPECT_EQ(c.ffr_stem(a), y);
  EXPECT_EQ(c.ffr_stem(y), y);
  EXPECT_EQ(c.fanout_cone(y), std::vector<int>{g1});
  EXPECT_EQ(chain_then_stem_cone(c, a), (std::vector<int>{g0, g1}));
  expect_cones_match_search(c);
}

TEST(Decompose, CompositeLoweringPreservesFunction) {
  Circuit c("t");
  const NetId a = c.add_input("a");
  const NetId b = c.add_input("b");
  const NetId cc = c.add_input("c");
  const NetId x = c.net("x");
  const NetId y = c.net("y");
  const NetId o = c.net("o");
  c.add_gate(GateType::kXor2, "gx", {a, b}, x);
  c.add_gate(GateType::kAnd2, "ga", {x, cc}, y);
  c.add_gate(GateType::kOr2, "go", {y, a}, o);
  c.mark_output(o);

  const Circuit p = decompose_composites(c);
  EXPECT_TRUE(p.validate().empty());
  for (const auto& g : p.gates())
    EXPECT_TRUE(is_primitive_cmos(g.type)) << g.name;
  for (std::uint64_t v = 0; v < 8; ++v)
    EXPECT_EQ(p.eval_outputs(v), c.eval_outputs(v)) << "v=" << v;
}

TEST(Decompose, BufAndXnor) {
  Circuit c("t");
  const NetId a = c.add_input("a");
  const NetId b = c.add_input("b");
  const NetId x = c.net("x");
  const NetId o = c.net("o");
  c.add_gate(GateType::kXnor2, "gx", {a, b}, x);
  c.add_gate(GateType::kBuf, "gb", {x}, o);
  c.mark_output(o);
  const Circuit p = decompose_composites(c);
  for (std::uint64_t v = 0; v < 4; ++v)
    EXPECT_EQ(p.eval_outputs(v), c.eval_outputs(v));
}

}  // namespace
}  // namespace obd::logic
