// ISCAS .bench frontend: parsing, multi-input decomposition, sequential
// (DFF) elaboration, line-numbered diagnostics, writer round-trips, and
// the checked-in corpus under bench/circuits/.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/bench.hpp"
#include "logic/zoo.hpp"
#include "mutation_common.hpp"
#include "util/prng.hpp"

namespace obd::io {
namespace {

using logic::Circuit;
using logic::GateType;

std::string corpus(const std::string& file) {
  return std::string(OBD_CORPUS_DIR) + "/" + file;
}

TEST(BenchIo, ParseMinimalCombinational) {
  const BenchParseResult r = parse_bench(
      "# tiny\nINPUT(a)\nINPUT(b)\nOUTPUT(o)\no = NAND(a, b)\n", "tiny");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.circuit().name(), "tiny");
  EXPECT_EQ(r.circuit().inputs().size(), 2u);
  EXPECT_EQ(r.circuit().outputs().size(), 1u);
  EXPECT_EQ(r.circuit().num_gates(), 1u);
  EXPECT_TRUE(r.seq.flops().empty());
  EXPECT_EQ(r.circuit().eval_outputs(0b11), 0u);
  EXPECT_EQ(r.circuit().eval_outputs(0b01), 1u);
}

TEST(BenchIo, UsesBeforeDefinitionsAndCaseInsensitiveFuncs) {
  // Published netlists freely reference nets before defining them; gate
  // function names come in both cases.
  const BenchParseResult r = parse_bench(
      "output(o)\no = nand(x, y)\nx = not(a)\ny = buff(b)\n"
      "input(a)\ninput(b)\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.circuit().num_gates(), 3u);
  EXPECT_EQ(r.circuit().eval_outputs(0b01), 1u);  // !( !a & b ), a=1,b=0
}

TEST(BenchIo, C17CorpusMatchesZooTwin) {
  // The checked-in c17.bench is the genuine ISCAS-85 netlist; the zoo twin
  // is hand-built. Exhaustive 2^5 functional equivalence (PI/PO orders
  // match by construction).
  const BenchParseResult r = load_bench_file(corpus("c17.bench"));
  ASSERT_TRUE(r.ok) << r.error;
  const Circuit zoo = logic::c17();
  ASSERT_EQ(r.circuit().inputs().size(), zoo.inputs().size());
  ASSERT_EQ(r.circuit().outputs().size(), zoo.outputs().size());
  EXPECT_EQ(r.circuit().num_gates(), 6u);
  for (std::uint64_t v = 0; v < 32; ++v)
    EXPECT_EQ(r.circuit().eval_outputs(v), zoo.eval_outputs(v)) << "v=" << v;
}

TEST(BenchIo, MultiInputGatesDecompose) {
  const BenchParseResult r = parse_bench(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\n"
      "OUTPUT(n5)\nOUTPUT(o3)\nOUTPUT(x3)\nOUTPUT(p4)\n"
      "n5 = NAND(a, b, c, d, e)\n"
      "o3 = OR(a, b, c)\n"
      "x3 = XOR(a, b, c)\n"
      "p4 = XNOR(a, b, c, d)\n");
  ASSERT_TRUE(r.ok) << r.error;
  const Circuit& c = r.circuit();
  // The named output nets keep their function on the root gate; the
  // 5-input NAND's root stays an OBD-faultable primitive.
  EXPECT_EQ(c.gate(c.driver_of(c.find_net("n5"))).type, GateType::kNand2);
  EXPECT_EQ(c.gate(c.driver_of(c.find_net("x3"))).type, GateType::kXor2);
  for (std::uint64_t v = 0; v < 32; ++v) {
    const bool a = v & 1, b = v & 2, cc = v & 4, d = v & 8, e = v & 16;
    const std::uint64_t out = c.eval_outputs(v).u64();
    EXPECT_EQ((out >> 0) & 1, !(a && b && cc && d && e)) << v;
    EXPECT_EQ((out >> 1) & 1, a || b || cc) << v;
    EXPECT_EQ((out >> 2) & 1, a ^ b ^ cc) << v;
    EXPECT_EQ((out >> 3) & 1, !(a ^ b ^ cc ^ d)) << v;
  }
}

TEST(BenchIo, NativeArityNandNorStayWhole) {
  const BenchParseResult r = parse_bench(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(o)\n"
      "o = NOR(a, b, c, d)\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.circuit().num_gates(), 1u);
  EXPECT_EQ(r.circuit().gate(0).type, GateType::kNor4);
}

TEST(BenchIo, S27CorpusParsesToSequential) {
  const BenchParseResult r = load_bench_file(corpus("s27.bench"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.seq.flops().size(), 3u);
  EXPECT_EQ(r.seq.core().inputs().size(), 4u);
  EXPECT_EQ(r.seq.core().outputs().size(), 1u);
  EXPECT_EQ(r.seq.core().num_gates(), 10u);
  EXPECT_EQ(r.seq.validate(), "");
  // Scan view: 4 PIs + 3 pseudo-PIs, 1 PO + 3 pseudo-POs.
  const Circuit sv = r.seq.scan_view();
  EXPECT_EQ(sv.inputs().size(), 7u);
  EXPECT_EQ(sv.outputs().size(), 4u);
}

TEST(BenchIo, CorpusRoundTripsThroughWriter) {
  util::Prng prng(0xb37c4);
  for (const char* file : {"c17.bench", "c432.bench", "c880.bench",
                           "c1355.bench", "s27.bench", "s344.bench"}) {
    const BenchParseResult a = load_bench_file(corpus(file));
    ASSERT_TRUE(a.ok) << file << ": " << a.error;
    const BenchParseResult b = parse_bench(write_bench(a.seq), "rt");
    ASSERT_TRUE(b.ok) << file << ": " << b.error;
    EXPECT_EQ(a.seq.core().num_gates(), b.seq.core().num_gates()) << file;
    EXPECT_EQ(a.seq.core().inputs().size(), b.seq.core().inputs().size());
    EXPECT_EQ(a.seq.core().outputs().size(), b.seq.core().outputs().size());
    EXPECT_EQ(a.seq.flops().size(), b.seq.flops().size()) << file;
    // Functional equivalence on the scan view (combinational circuits have
    // a trivial one), 256 random vectors.
    const Circuit va = a.seq.scan_view();
    const Circuit vb = b.seq.scan_view();
    ASSERT_LE(va.inputs().size(), 64u) << file;
    for (int k = 0; k < 256; ++k) {
      const std::uint64_t v = prng.next_u64();
      EXPECT_EQ(va.eval_outputs(v), vb.eval_outputs(v)) << file;
    }
  }
}

TEST(BenchIo, WriterLowersAoiOaiCells) {
  Circuit c("aoi");
  const auto a = c.add_input("a"), b = c.add_input("b"), s = c.add_input("s");
  const auto o = c.net("o"), p = c.net("p");
  c.add_gate(GateType::kAoi21, "o", {a, b, s}, o);
  c.add_gate(GateType::kOai21, "p", {a, b, s}, p);
  c.mark_output(o);
  c.mark_output(p);
  const BenchParseResult r = parse_bench(write_bench(c), "aoi");
  ASSERT_TRUE(r.ok) << r.error;
  for (std::uint64_t v = 0; v < 8; ++v)
    EXPECT_EQ(r.circuit().eval_outputs(v), c.eval_outputs(v)) << v;
}

TEST(BenchIo, ErrorUnknownFunction) {
  const BenchParseResult r =
      parse_bench("INPUT(a)\nOUTPUT(o)\no = FROB(a)\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 3"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("FROB"), std::string::npos) << r.error;
}

TEST(BenchIo, ErrorUndefinedNet) {
  const BenchParseResult r =
      parse_bench("INPUT(a)\nOUTPUT(o)\no = NAND(a, ghost)\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 3"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("ghost"), std::string::npos) << r.error;
}

TEST(BenchIo, ErrorDuplicateDriver) {
  const BenchParseResult r = parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = NAND(a, b)\no = NOR(a, b)\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 5"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("line 4"), std::string::npos) << r.error;
}

TEST(BenchIo, ErrorGateDrivesInput) {
  const BenchParseResult r =
      parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(b)\nb = NOT(a)\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 4"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("INPUT"), std::string::npos) << r.error;
}

TEST(BenchIo, ErrorCombinationalCycle) {
  const BenchParseResult r = parse_bench(
      "INPUT(a)\nOUTPUT(x)\nx = NAND(a, y)\ny = NOT(x)\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cycle"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("line 3"), std::string::npos) << r.error;
}

TEST(BenchIo, ErrorDffArity) {
  const BenchParseResult r = parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = DFF(a, b)\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("DFF"), std::string::npos) << r.error;
}

TEST(BenchIo, ErrorTrailingTextAfterStatement) {
  const BenchParseResult r = parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, b) junk\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 4"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("trailing"), std::string::npos) << r.error;
}

TEST(BenchIo, ErrorDuplicateOutput) {
  const BenchParseResult r = parse_bench(
      "INPUT(a)\nOUTPUT(o)\nOUTPUT(o)\no = NOT(a)\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 3"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("OUTPUT"), std::string::npos) << r.error;
}

TEST(BenchIo, ErrorOutputNeverDefined) {
  const BenchParseResult r = parse_bench("INPUT(a)\nOUTPUT(ghost)\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("ghost"), std::string::npos) << r.error;
}

/// Generated fuzz seeds for shapes the corpus lacks: a 1 000-input NAND, XOR
/// and OR over shared inputs (the parser's balanced-tree decomposition) and
/// a 2 000-deep NOT chain.
std::vector<std::pair<std::string, std::string>> generated_seeds() {
  std::string wide, args;
  for (int i = 0; i < 1000; ++i) {
    wide += "INPUT(i" + std::to_string(i) + ")\n";
    args += (i == 0 ? "i" : ", i") + std::to_string(i);
  }
  wide += "OUTPUT(y_NAND)\nOUTPUT(y_XOR)\nOUTPUT(y_OR)\n";
  for (const std::string f : {"NAND", "XOR", "OR"})
    wide += "y_" + f + " = " + f + "(" + args + ")\n";
  std::string chain = "INPUT(n0)\nOUTPUT(n2000)\n";
  for (int i = 1; i <= 2000; ++i)
    chain += "n" + std::to_string(i) + " = NOT(n" + std::to_string(i - 1) +
             ")\n";
  return {{"fanin1000", wide}, {"not_chain2000", chain}};
}

TEST(BenchIo, SeededMutationsLocateEveryError) {
  // Hostile text: fixed-seed byte flips, deletions, truncations and
  // duplicated spans over real netlists, then over generated huge-fan-in
  // and deep-chain ones (appended, so the corpus mutants keep their
  // sequence). The parser must never crash, must name a line in every
  // diagnostic, and whatever it accepts must survive the writer with the
  // same interface and function.
  util::Prng prng(0xf022b3c4);
  const std::string specials = "(),=#\n \t";
  std::vector<std::pair<std::string, std::string>> seeds;
  for (const char* file : {"c17.bench", "s27.bench", "c432.bench"}) {
    std::ifstream in(corpus(file));
    std::stringstream buf;
    buf << in.rdbuf();
    seeds.emplace_back(file, buf.str());
  }
  for (auto& seed : generated_seeds()) seeds.push_back(std::move(seed));
  for (const auto& [name, base] : seeds) {
    ASSERT_FALSE(base.empty()) << name;
    ASSERT_TRUE(parse_bench(base, name).ok) << name;
    int accepted = 0;
    for (int m = 0; m < 1000; ++m) {
      const std::string text = testing_mutation::mutate(base, prng, specials);
      const BenchParseResult a = parse_bench(text, "mutant");
      if (!a.ok) {
        ASSERT_EQ(a.error.rfind("line ", 0), 0u)
            << name << " mutation " << m << ": " << a.error;
        continue;
      }
      ++accepted;
      const BenchParseResult b = parse_bench(write_bench(a.seq), "rt");
      ASSERT_TRUE(b.ok) << name << " mutation " << m << ": " << b.error;
      ASSERT_EQ(a.seq.core().inputs().size(), b.seq.core().inputs().size());
      ASSERT_EQ(a.seq.core().outputs().size(), b.seq.core().outputs().size());
      ASSERT_EQ(a.seq.flops().size(), b.seq.flops().size());
      const Circuit va = a.seq.scan_view();
      const Circuit vb = b.seq.scan_view();
      for (int v = 0; v < 16; ++v) {
        const logic::InputVec x =
            logic::InputVec::random(va.inputs().size(), prng);
        ASSERT_EQ(va.eval_outputs(x), vb.eval_outputs(x))
            << name << " mutation " << m;
      }
    }
    EXPECT_GT(accepted, 0) << name;
  }
}

TEST(BenchIo, LoadReportsMissingFile) {
  const BenchParseResult r = load_bench_file(corpus("no_such.bench"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no_such"), std::string::npos);
}

}  // namespace
}  // namespace obd::io
