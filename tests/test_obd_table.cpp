// The per-cell OBD table (atpg/goals.hpp): every fact it holds against
// core/excitation.hpp, the collapse it drives against the per-fault
// excitation-key grouping it replaced, and generate_test's one search per
// distinct capture frame against the goal-by-goal loop.
#include <gtest/gtest.h>

#include <map>

#include "atpg/atpg.hpp"
#include "atpg/goals.hpp"
#include "core/excitation.hpp"
#include "flow/campaign.hpp"
#include "io/bench.hpp"
#include "logic/gate.hpp"
#include "oracle_common.hpp"

namespace obd::atpg {
namespace {

using logic::Circuit;
using logic::GateType;

constexpr GateType kAllTypes[] = {
    GateType::kBuf,   GateType::kInv,   GateType::kNand2, GateType::kNand3,
    GateType::kNand4, GateType::kNor2,  GateType::kNor3,  GateType::kNor4,
    GateType::kAnd2,  GateType::kOr2,   GateType::kXor2,  GateType::kXnor2,
    GateType::kAoi21, GateType::kAoi22, GateType::kOai21};

bool same_pairs(const std::vector<cells::TwoVector>& a,
                const std::vector<cells::TwoVector>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].v1 != b[i].v1 || a[i].v2 != b[i].v2) return false;
  return true;
}

TEST(ObdTable, EveryFactMatchesCore) {
  for (const GateType type : kAllTypes) {
    const char* name = logic::gate_type_name(type);
    const auto topo = logic::gate_topology(type);
    const ObdCell* cell = obd_cell(type);
    ASSERT_EQ(cell != nullptr, topo.has_value()) << name;
    if (!topo) continue;
    EXPECT_EQ(cell, obd_cell(type)) << name << ": built once";

    const std::uint32_t n_vec = 1u << topo->num_inputs;
    for (std::uint32_t v = 0; v < 16; ++v)
      EXPECT_EQ(cell->output_at(v), v < n_vec && topo->output(v))
          << name << " output " << v;

    const auto transistors = topo->transistors();
    ASSERT_EQ(cell->transistors.size(), transistors.size()) << name;
    for (std::size_t i = 0; i < transistors.size(); ++i) {
      const ObdTransistor& e = cell->transistors[i];
      const std::string what = std::string(name) +
                               (e.transistor.pmos ? " P" : " N") +
                               std::to_string(e.transistor.input);
      EXPECT_EQ(e.transistor, transistors[i]) << what;
      EXPECT_EQ(&cell->at(transistors[i]), &e) << what;
      EXPECT_TRUE(same_pairs(e.excitations,
                             core::obd_excitations(*topo, e.transistor)))
          << what;
      for (std::uint32_t v1 = 0; v1 < 16; ++v1)
        for (std::uint32_t v2 = 0; v2 < 16; ++v2) {
          const bool excites =
              v1 < n_vec && v2 < n_vec &&
              core::excites_obd(*topo, e.transistor, cells::TwoVector{v1, v2});
          EXPECT_EQ(((e.mask[v1] >> v2) & 1u) != 0, excites)
              << what << " " << v1 << " -> " << v2;
        }
      EXPECT_EQ(e.class_id == ObdTransistor::kNoExcitation,
                e.excitations.empty())
          << what;
      for (const ObdTransistor& other : cell->transistors)
        EXPECT_EQ(e.class_id == other.class_id,
                  same_pairs(e.excitations, other.excitations))
            << what;
    }

    // A transistor the cell lacks has the empty set.
    const ObdTransistor& none = cell->at({false, topo->num_inputs});
    EXPECT_TRUE(none.excitations.empty()) << name;
    EXPECT_EQ(none.class_id, ObdTransistor::kNoExcitation) << name;
    for (std::uint16_t row : none.mask) EXPECT_EQ(row, 0) << name;
  }
}

/// The grouping collapse_obd_faults used before the table: a std::map over
/// (gate, the fault's excitation pairs as sorted 64-bit keys).
CollapsedFaults map_grouping(const Circuit& c,
                             const std::vector<ObdFaultSite>& faults) {
  const auto key_of = [&](const ObdFaultSite& f) {
    std::vector<std::uint64_t> key;
    const auto topo = logic::gate_topology(c.gate(f.gate_index).type);
    if (!topo) return key;
    for (const auto& tv : core::obd_excitations(*topo, f.transistor))
      key.push_back((static_cast<std::uint64_t>(tv.v1) << 32) | tv.v2);
    return key;
  };
  CollapsedFaults out;
  out.original_count = faults.size();
  std::map<std::pair<int, std::vector<std::uint64_t>>, std::size_t> classes;
  for (const ObdFaultSite& f : faults) {
    const auto [it, fresh] = classes.emplace(
        std::make_pair(f.gate_index, key_of(f)), out.representatives.size());
    if (fresh) out.representatives.push_back(f);
    out.class_of.push_back(it->second);
  }
  return out;
}

/// A circuit of one gate of `type` over fresh PIs.
Circuit single_gate(GateType type) {
  Circuit c(logic::gate_type_name(type));
  std::vector<NetId> ins;
  for (int k = 0; k < logic::gate_arity(type); ++k)
    ins.push_back(c.add_input("i" + std::to_string(k)));
  const NetId y = c.net("y");
  c.add_gate(type, "g", ins, y);
  c.mark_output(y);
  return c;
}

Circuit corpus_view(const std::string& file) {
  const io::BenchParseResult p =
      io::load_bench_file(std::string(OBD_CORPUS_DIR) + "/" + file);
  EXPECT_TRUE(p.ok) << file << ": " << p.error;
  return logic::decompose_composites(p.seq.flops().empty() ? p.seq.core()
                                                           : p.seq.scan_view());
}

void expect_collapse_matches_map(const Circuit& c) {
  std::vector<ObdFaultSite> faults = enumerate_obd_faults(c);
  // Sites with no excitation at all: a transistor the cell lacks, and any
  // transistor of a composite gate. Each gate's such sites form one class.
  for (std::size_t g = 0; g < c.num_gates(); g += 7) {
    faults.push_back({static_cast<int>(g), {true, 5}});
    faults.push_back({static_cast<int>(g), {false, 0}});
  }
  const CollapsedFaults got = collapse_obd_faults(c, faults);
  const CollapsedFaults want = map_grouping(c, faults);
  EXPECT_EQ(got.representatives, want.representatives) << c.name();
  EXPECT_EQ(got.class_of, want.class_of) << c.name();
  EXPECT_EQ(got.original_count, faults.size()) << c.name();
  for (std::size_t i = 0; i < faults.size(); i += 5)
    for (std::size_t j = i; j < std::min(faults.size(), i + 12); ++j)
      EXPECT_EQ(gate_equivalent(c, faults[i], faults[j]),
                want.class_of[i] == want.class_of[j])
          << c.name() << " " << i << " " << j;
}

TEST(ObdTable, CollapseMatchesMapGroupingOnCorpusZooAndComplexCells) {
  for (const char* file :
       {"c17.bench", "c432.bench", "c880.bench", "c1355.bench", "c2670.bench",
        "c7552.bench", "s27.bench", "s344.bench", "s1423.bench", "mul10.bench"})
    expect_collapse_matches_map(corpus_view(file));
  for (const Circuit& c : oracle::zoo()) expect_collapse_matches_map(c);
  for (const GateType type :
       {GateType::kAoi21, GateType::kAoi22, GateType::kOai21})
    expect_collapse_matches_map(single_gate(type));
}

/// generate_test as it was before capture frames were shared: every goal
/// runs its own capture-frame search.
TwoFrameResult goal_by_goal(const Circuit& c,
                            const std::vector<TwoFrameGoal>& goals,
                            const PodemOptions& opt) {
  TwoFrameResult result;
  bool any_aborted = false;
  AbortReason abort_reason = AbortReason::kNone;
  auto tally = [&](const PodemResult& r) {
    result.backtracks += r.backtracks;
    result.implications += r.implications;
    if (r.status != PodemStatus::kAborted) return;
    any_aborted = true;
    if (abort_reason != AbortReason::kTime) abort_reason = r.reason;
  };
  for (const TwoFrameGoal& goal : goals) {
    const StuckFault& forced = *goal.fault_frame.fault;
    const PodemResult f2 = podem_constrained_fault(
        c, goal.fault_frame.constraints, forced.net, forced.value, opt);
    tally(f2);
    if (f2.status != PodemStatus::kFound) continue;
    InputVec v1 = f2.vector.bits;
    if (goal.justify_frame) {
      const PodemResult f1 =
          podem_justify(c, goal.justify_frame->constraints, opt);
      tally(f1);
      if (f1.status != PodemStatus::kFound) continue;
      v1 = f1.vector.bits;
    }
    result.status = PodemStatus::kFound;
    result.test = TwoVectorTest{v1, f2.vector.bits};
    return result;
  }
  result.status =
      any_aborted ? PodemStatus::kAborted : PodemStatus::kUntestable;
  if (any_aborted) result.reason = abort_reason;
  return result;
}

std::size_t distinct_capture_frames(const std::vector<TwoFrameGoal>& goals) {
  std::vector<const FrameGoal*> seen;
  for (const TwoFrameGoal& g : goals)
    if (std::none_of(seen.begin(), seen.end(), [&](const FrameGoal* s) {
          return *s == g.fault_frame;
        }))
      seen.push_back(&g.fault_frame);
  return seen.size();
}

/// Checks generate_obd_test against goal_by_goal on every site of `sites`:
/// the same status, test and abort reason, and no more effort. Returns the
/// implications saved.
long long expect_reuse_matches_loop(const Circuit& c,
                                    const std::vector<ObdFaultSite>& sites,
                                    long budget, const std::string& label) {
  PodemOptions opt;
  opt.max_backtracks = budget;
  long long saved = 0;
  for (const ObdFaultSite& site : sites) {
    const std::string what = label + " " + fault_name(c, site) + " budget " +
                             std::to_string(budget);
    const TwoFrameResult got = generate_obd_test(c, site, opt);
    const TwoFrameResult want = goal_by_goal(c, goals_of(c, site), opt);
    EXPECT_EQ(got.status, want.status) << what;
    EXPECT_EQ(got.reason, want.reason) << what;
    EXPECT_EQ(got.test, want.test) << what;
    EXPECT_LE(got.implications, want.implications) << what;
    EXPECT_LE(got.backtracks, want.backtracks) << what;
    saved += want.implications - got.implications;
  }
  return saved;
}

TEST(CaptureFrameReuse, SameOutcomeAsGoalByGoalWithNoMoreEffort) {
  // Budget 20: every representative, aborts included. Budget 100 000 (the
  // CLI default): the representatives a default campaign's top-off searches,
  // those its 2048-pair random prepass leaves undetected. Searching every
  // representative at that budget takes minutes (c880 alone 6.5 s per loop),
  // and mul10's top-off alone takes seconds, so mul10 runs at budget 20 only.
  for (const char* file : {"c880.bench", "c2670.bench", "mul10.bench"}) {
    const Circuit c = corpus_view(file);
    const auto reps =
        collapse_obd_faults(c, enumerate_obd_faults(c)).representatives;
    std::size_t shared = 0;
    for (const ObdFaultSite& site : reps) {
      const auto goals = goals_of(c, site);
      if (distinct_capture_frames(goals) < goals.size()) ++shared;
    }
    EXPECT_GT(shared, 0u) << file;
    EXPECT_GT(expect_reuse_matches_loop(c, reps, 20, file), 0) << file;
    if (std::string(file) == "mul10.bench") continue;

    const flow::CampaignOptions defaults;
    const auto pool = random_pairs(static_cast<int>(c.inputs().size()),
                                   defaults.random_patterns, defaults.seed);
    const auto prepass = FaultSimScheduler(c).campaign_obd(pool, reps);
    std::vector<ObdFaultSite> top_off;
    for (std::size_t i = 0; i < reps.size(); ++i)
      if (prepass.first_test[i] < 0) top_off.push_back(reps[i]);
    ASSERT_FALSE(top_off.empty()) << file;
    EXPECT_GT(expect_reuse_matches_loop(c, top_off, 100000, file), 0) << file;
  }
}

TEST(CaptureFrameReuse, UntestableNand4NmosCostsOneCaptureSearch) {
  // y = NAND4(a, b, c, d) is observed only through OR2(y, a). Every NMOS
  // goal's capture frame pins a..d to 1, which holds the OR at 1: all 15
  // goals share that one frame, and it is untestable.
  Circuit c("nand4_masked");
  std::vector<NetId> ins;
  for (const char* n : {"a", "b", "c", "d"}) ins.push_back(c.add_input(n));
  const NetId y = c.net("y");
  const int g = c.add_gate(GateType::kNand4, "g", ins, y);
  const NetId z = c.net("z");
  c.add_gate(GateType::kOr2, "o", {y, ins[0]}, z);
  c.mark_output(z);

  const ObdFaultSite site{g, {false, 2}};
  const auto goals = goals_of(c, site);
  ASSERT_EQ(goals.size(), 15u);
  ASSERT_EQ(distinct_capture_frames(goals), 1u);
  const StuckFault& forced = *goals[0].fault_frame.fault;
  const PodemResult one = podem_constrained_fault(
      c, goals[0].fault_frame.constraints, forced.net, forced.value);
  ASSERT_EQ(one.status, PodemStatus::kUntestable);
  ASSERT_GT(one.implications, 0);

  const TwoFrameResult got = generate_obd_test(c, site);
  EXPECT_EQ(got.status, PodemStatus::kUntestable);
  EXPECT_EQ(got.implications, one.implications);
  EXPECT_EQ(got.backtracks, one.backtracks);
  const TwoFrameResult loop = goal_by_goal(c, goals, {});
  EXPECT_EQ(loop.status, PodemStatus::kUntestable);
  EXPECT_EQ(loop.implications, 15 * one.implications);
}

TEST(CaptureFrameReuse, Aoi22SharesThreeCaptureFrames) {
  // AOI22 = !(A*B + C*D): the transistor with the most exciting pairs has
  // 27 goals, whose capture frames take only 3 distinct pin sets.
  const Circuit c = single_gate(GateType::kAoi22);
  std::size_t most = 0, frames = 0;
  for (const ObdFaultSite& site : enumerate_obd_faults(c)) {
    const auto goals = goals_of(c, site);
    if (goals.size() <= most) continue;
    most = goals.size();
    frames = distinct_capture_frames(goals);
  }
  EXPECT_EQ(most, 27u);
  EXPECT_EQ(frames, 3u);
}

}  // namespace
}  // namespace obd::atpg
