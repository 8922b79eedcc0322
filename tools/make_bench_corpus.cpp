// Regenerates the size-matched ISCAS stand-in circuits of the checked-in
// corpus (bench/circuits/). c17 and s27 are the genuine published
// netlists and are NOT touched here; the four larger circuits are
// deterministic stand-ins that match the classic benchmarks' interface
// (PI/PO/flop counts) and approximate their gate counts and character —
// adder/priority logic for c432, an ALU-ish datapath for c880, an
// XOR-heavy NAND-expanded coder for c1355, and a shift-add multiplier
// controller for s344 — because the original netlists are not
// redistributed in this repository. See bench/circuits/README.md.
//
// The wide tier (c2670 / c7552 / s1423 stand-ins) matches the classic
// interfaces that exceed 64 primary inputs (233/207 PIs, a 74-flop scan
// chain) and exists to exercise the multi-word InputVec test-vector path
// at benchmark scale.
//
// mul10 is logic::array_multiplier(10) written out unchanged: a genuine
// (unplanted) hard tail. At a starved PODEM budget its OBD campaign leaves
// aborts that only SAT escalation resolves, most of them provably
// untestable, so the SAT layer is exercised on more than the planted
// redundant carry block of the c2670/c7552 stand-ins.
//
// Usage: make_bench_corpus [outdir]   (default bench/circuits)
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "io/bench.hpp"
#include "logic/circuit.hpp"
#include "logic/zoo.hpp"

namespace {

using namespace obd;
using logic::Circuit;
using logic::GateType;
using logic::NetId;

/// Adds a gate whose instance name equals its output net name.
NetId g(Circuit& c, GateType t, const std::string& out,
        const std::vector<NetId>& ins) {
  const NetId o = c.net(out);
  c.add_gate(t, out, ins, o);
  return o;
}

std::string nn(const std::string& base, int i) {
  return base + std::to_string(i);
}

/// Ripple-carry sum of two equal-width vectors (no carry-in).
/// Emits 5 gates per bit (2 for bit 0); returns sum bits + carry-out.
void rca(Circuit& c, const std::string& p, const std::vector<NetId>& a,
         const std::vector<NetId>& b, std::vector<NetId>& sum, NetId& cout) {
  sum.clear();
  NetId carry = logic::kNoNet;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const NetId x = g(c, GateType::kXor2, nn(p + "X", static_cast<int>(i)),
                      {a[i], b[i]});
    const NetId t1 = g(c, GateType::kAnd2, nn(p + "G", static_cast<int>(i)),
                       {a[i], b[i]});
    if (i == 0) {
      sum.push_back(x);
      carry = t1;
      continue;
    }
    sum.push_back(g(c, GateType::kXor2, nn(p + "S", static_cast<int>(i)),
                    {x, carry}));
    const NetId t2 = g(c, GateType::kAnd2, nn(p + "P", static_cast<int>(i)),
                       {x, carry});
    carry = g(c, GateType::kOr2, nn(p + "C", static_cast<int>(i)), {t1, t2});
  }
  cout = carry;
}

/// 2:1 mux: sel ? a : b (sel's inverse is provided by the caller so wide
/// buses share it).
NetId mux(Circuit& c, const std::string& out, NetId sel, NetId nsel, NetId a,
          NetId b) {
  const NetId ta = g(c, GateType::kAnd2, out + "a", {a, sel});
  const NetId tb = g(c, GateType::kAnd2, out + "b", {b, nsel});
  return g(c, GateType::kOr2, out, {ta, tb});
}

/// Redundant carry checker over the low `n` adder bits: recomputes the
/// ripple carry-out of a[0..n-1] + b[0..n-1] with fresh generate/propagate
/// terms folded by a pairwise prefix tree — the same carry function as the
/// ripple chain, built from a structurally different circuit. The
/// comparison XOR ("<p>D") is therefore constant 0, like the self-checking
/// duplication rails real controllers carry, and every fault that needs it
/// at 1 is redundant: untestable in principle, but provable only by
/// exhausting the 2n-input support. This is the corpus's deliberate hard
/// tail — PODEM aborts on it under a tight backtrack budget, and the SAT
/// backend turns those aborts into untestability proofs.
NetId redundant_carry_check(Circuit& c, const std::string& p,
                            const std::vector<NetId>& a,
                            const std::vector<NetId>& b, int n,
                            NetId ripple_carry, NetId obs) {
  std::vector<NetId> G, P;
  for (int i = 0; i < n; ++i) {
    G.push_back(g(c, GateType::kAnd2, nn(p + "G", i),
                  {a[static_cast<std::size_t>(i)],
                   b[static_cast<std::size_t>(i)]}));
    P.push_back(g(c, GateType::kXor2, nn(p + "P", i),
                  {a[static_cast<std::size_t>(i)],
                   b[static_cast<std::size_t>(i)]}));
  }
  int t = 0;
  while (G.size() > 1) {
    std::vector<NetId> G2, P2;
    for (std::size_t i = 0; i + 1 < G.size(); i += 2, ++t) {
      const NetId thru =
          g(c, GateType::kAnd2, nn(p + "T", t), {P[i + 1], G[i]});
      G2.push_back(g(c, GateType::kOr2, nn(p + "U", t), {G[i + 1], thru}));
      if (!(G.size() == 2 && G2.size() == 1))  // final segment P is unused
        P2.push_back(g(c, GateType::kAnd2, nn(p + "V", t), {P[i + 1], P[i]}));
    }
    if (G.size() % 2) {
      G2.push_back(G.back());
      P2.push_back(P.back());
    }
    G = std::move(G2);
    P = std::move(P2);
  }
  const NetId d = g(c, GateType::kXor2, p + "D", {ripple_carry, G[0]});
  return g(c, GateType::kOr2, p + "O", {d, obs});
}

/// c432 stand-in: 36 PI, 7 PO, adder + priority-chain + parity compress
/// (the real c432 is a 27-channel interrupt priority controller).
Circuit make_c432() {
  Circuit c("c432");
  std::vector<NetId> A, B;
  for (int i = 0; i < 18; ++i) A.push_back(c.add_input(nn("A", i)));
  for (int i = 0; i < 18; ++i) B.push_back(c.add_input(nn("B", i)));

  std::vector<NetId> s;
  NetId cout = logic::kNoNet;
  rca(c, "ADD", A, B, s, cout);

  // Priority chain across the request pairs (A_i, B_17-i).
  NetId p = logic::kNoNet;
  for (int i = 0; i < 18; ++i) {
    const NetId a = g(c, GateType::kAnd2, nn("PA", i),
                      {A[static_cast<std::size_t>(i)],
                       B[static_cast<std::size_t>(17 - i)]});
    p = i == 0 ? a : g(c, GateType::kOr2, nn("PR", i), {p, a});
  }

  // Six 3-bit parity groups over the sum; the chain folds into group 0.
  std::vector<NetId> grp;
  for (int j = 0; j < 6; ++j) {
    const NetId u = g(c, GateType::kXor2, nn("GU", j),
                      {s[static_cast<std::size_t>(3 * j)],
                       s[static_cast<std::size_t>(3 * j + 1)]});
    grp.push_back(g(c, GateType::kXor2, nn("GP", j),
                    {u, s[static_cast<std::size_t>(3 * j + 2)]}));
  }
  c.mark_output(g(c, GateType::kXor2, "PO0", {grp[0], p}));
  for (int j = 1; j < 6; ++j) c.mark_output(grp[static_cast<std::size_t>(j)]);
  c.mark_output(cout);
  return c;
}

/// c880 stand-in: 60 PI, 26 PO, two adders + mux + comparator + parity
/// (the real c880 is an 8-bit ALU).
Circuit make_c880() {
  Circuit c("c880");
  std::vector<NetId> A, B, C, D, S;
  for (int i = 0; i < 16; ++i) A.push_back(c.add_input(nn("A", i)));
  for (int i = 0; i < 16; ++i) B.push_back(c.add_input(nn("B", i)));
  for (int i = 0; i < 16; ++i) C.push_back(c.add_input(nn("C", i)));
  for (int i = 0; i < 8; ++i) D.push_back(c.add_input(nn("D", i)));
  for (int i = 0; i < 4; ++i) S.push_back(c.add_input(nn("S", i)));

  std::vector<NetId> R, T;
  NetId cA = logic::kNoNet, cT = logic::kNoNet;
  rca(c, "RA", A, B, R, cA);
  std::vector<NetId> Dd;  // D replicated to 16 bits
  for (int i = 0; i < 16; ++i) Dd.push_back(D[static_cast<std::size_t>(i % 8)]);
  rca(c, "RT", C, Dd, T, cT);

  const NetId ns0 = g(c, GateType::kInv, "NS0", {S[0]});
  for (int i = 0; i < 16; ++i)
    c.mark_output(mux(c, nn("Y", i), S[0], ns0, R[static_cast<std::size_t>(i)],
                      T[static_cast<std::size_t>(i)]));
  c.mark_output(cA);
  c.mark_output(cT);

  // eq = (A == C), AND-reduced XNOR rail.
  NetId eq = logic::kNoNet;
  for (int i = 0; i < 16; ++i) {
    const NetId x = g(c, GateType::kXnor2, nn("EQ", i),
                      {A[static_cast<std::size_t>(i)],
                       C[static_cast<std::size_t>(i)]});
    eq = i == 0 ? x : g(c, GateType::kAnd2, nn("EA", i), {eq, x});
  }
  c.mark_output(eq);

  NetId par = logic::kNoNet;  // parity of B
  for (int i = 0; i < 16; ++i)
    par = i == 0 ? B[0]
                 : g(c, GateType::kXor2, nn("PB", i),
                     {par, B[static_cast<std::size_t>(i)]});
  c.mark_output(par);

  for (int j = 0; j < 4; ++j)
    c.mark_output(g(c, GateType::kXor2, nn("F", j),
                    {D[static_cast<std::size_t>(j)],
                     D[static_cast<std::size_t>(j + 4)]}));
  c.mark_output(g(c, GateType::kAnd2, "K1", {S[1], S[2]}));
  c.mark_output(g(c, GateType::kOr2, "K2", {S[2], S[3]}));
  return c;
}

/// c1355 stand-in: 41 PI, 32 PO, an XOR-heavy coder emitted NAND-expanded
/// — mirroring the real c1355's relation to c499 (same function, XORs
/// expanded into NAND primitives).
Circuit make_c1355() {
  Circuit c("c1355x");
  std::vector<NetId> D, K;
  for (int i = 0; i < 32; ++i) D.push_back(c.add_input(nn("D", i)));
  for (int i = 0; i < 9; ++i) K.push_back(c.add_input(nn("K", i)));

  // Eight overlapping 8-bit window parities over the data word.
  std::vector<NetId> grp;
  for (int j = 0; j < 8; ++j) {
    NetId acc = D[static_cast<std::size_t>((4 * j) % 32)];
    for (int t = 1; t < 8; ++t)
      acc = g(c, GateType::kXor2, nn("W", j) + "_" + std::to_string(t),
              {acc, D[static_cast<std::size_t>((4 * j + t) % 32)]});
    grp.push_back(acc);
  }
  for (int j = 0; j < 8; ++j) {
    const NetId kk = g(c, GateType::kXor2, nn("KK", j),
                       {K[static_cast<std::size_t>(j)], K[8]});
    grp[static_cast<std::size_t>(j)] =
        g(c, GateType::kXor2, nn("H", j),
          {grp[static_cast<std::size_t>(j)], kk});
  }
  for (int i = 0; i < 32; ++i)
    c.mark_output(g(c, GateType::kXor2, nn("O", i),
                    {D[static_cast<std::size_t>(i)],
                     grp[static_cast<std::size_t>(i % 8)]}));
  return logic::decompose_composites(c);
}

/// s344 stand-in: 9 PI, 11 PO, 15 DFF — a 4x4 shift-add multiplier
/// datapath + controller (the real s344 is the "mult4" controller).
logic::SequentialCircuit make_s344() {
  Circuit c("s344");
  std::vector<NetId> A, B;
  for (int i = 0; i < 4; ++i) A.push_back(c.add_input(nn("A", i)));
  for (int i = 0; i < 4; ++i) B.push_back(c.add_input(nn("B", i)));
  const NetId start = c.add_input("START");

  // State nets (flop outputs; undriven in the core).
  std::vector<NetId> ACC, M, CNT;
  for (int i = 0; i < 8; ++i) ACC.push_back(c.net(nn("ACC", i)));
  for (int i = 0; i < 4; ++i) M.push_back(c.net(nn("M", i)));
  for (int i = 0; i < 2; ++i) CNT.push_back(c.net(nn("CNT", i)));
  const NetId busy = c.net("BUSY");

  const NetId nbusy = g(c, GateType::kInv, "NBUSY", {busy});
  const NetId done = g(c, GateType::kAnd2, "DONE", {CNT[0], CNT[1]});
  const NetId ndone = g(c, GateType::kInv, "NDONE", {done});
  const NetId load = g(c, GateType::kAnd2, "LOAD", {start, nbusy});
  const NetId nload = g(c, GateType::kInv, "NLOAD", {load});
  const NetId run = g(c, GateType::kAnd2, "RUN", {busy, ndone});
  const NetId busy_d = g(c, GateType::kOr2, "BUSYD", {load, run});

  // Multiplier register: parallel-load B, then shift right (zero fill).
  std::vector<NetId> M_d(4);
  for (int i = 0; i < 3; ++i)
    M_d[static_cast<std::size_t>(i)] =
        mux(c, nn("MD", i), load, nload, B[static_cast<std::size_t>(i)],
            M[static_cast<std::size_t>(i + 1)]);
  M_d[3] = g(c, GateType::kAnd2, "MD3", {B[3], load});

  // Addend: A gated by the multiplier LSB while running.
  std::vector<NetId> AD;
  for (int i = 0; i < 4; ++i) {
    const NetId m = g(c, GateType::kAnd2, nn("ADM", i),
                      {A[static_cast<std::size_t>(i)], M[0]});
    AD.push_back(g(c, GateType::kAnd2, nn("AD", i), {m, run}));
  }

  // High-nibble add, then arithmetic shift right into the low nibble.
  std::vector<NetId> HI(ACC.begin() + 4, ACC.end());
  std::vector<NetId> HS;
  NetId hc = logic::kNoNet;
  rca(c, "HA", HI, AD, HS, hc);
  const NetId shifted[8] = {ACC[1], ACC[2], ACC[3], HS[0],
                            HS[1],  HS[2],  HS[3],  hc};
  const NetId nrun = g(c, GateType::kInv, "NRUN", {run});
  std::vector<NetId> ACC_d(8);
  for (int i = 0; i < 8; ++i) {
    const NetId nxt = mux(c, nn("AX", i), run, nrun, shifted[i],
                          ACC[static_cast<std::size_t>(i)]);
    ACC_d[static_cast<std::size_t>(i)] =
        g(c, GateType::kAnd2, nn("ACCD", i), {nxt, nload});
  }

  // 2-bit cycle counter, cleared on load.
  const NetId c0x = g(c, GateType::kXor2, "C0X", {CNT[0], run});
  const NetId cnt0_d = g(c, GateType::kAnd2, "CNT0D", {c0x, nload});
  const NetId c1t = g(c, GateType::kAnd2, "C1T", {CNT[0], run});
  const NetId c1x = g(c, GateType::kXor2, "C1X", {CNT[1], c1t});
  const NetId cnt1_d = g(c, GateType::kAnd2, "CNT1D", {c1x, nload});

  for (int i = 0; i < 8; ++i) c.mark_output(ACC[static_cast<std::size_t>(i)]);
  c.mark_output(busy);
  c.mark_output(done);
  c.mark_output(M[0]);

  logic::SequentialCircuit seq(std::move(c));
  Circuit& core = seq.core();
  for (int i = 0; i < 8; ++i)
    seq.add_flop(nn("ACC", i), core.net(nn("ACC", i)),
                 ACC_d[static_cast<std::size_t>(i)]);
  for (int i = 0; i < 4; ++i)
    seq.add_flop(nn("M", i), core.net(nn("M", i)),
                 M_d[static_cast<std::size_t>(i)]);
  seq.add_flop("CNT0", core.net("CNT0"), cnt0_d);
  seq.add_flop("CNT1", core.net("CNT1"), cnt1_d);
  seq.add_flop("BUSY", core.net("BUSY"), busy_d);
  return seq;
}

/// c2670 stand-in: 233 PI, 140 PO — adder + wide mux + segment comparator +
/// window parities + priority encoder (the real c2670 is an ALU/controller
/// with comparator and parity logic). First corpus circuit past the old
/// 64-PI ceiling: every test vector spans four words.
Circuit make_c2670() {
  Circuit c("c2670");
  std::vector<NetId> A, B, C, D, S;
  for (int i = 0; i < 64; ++i) A.push_back(c.add_input(nn("A", i)));
  for (int i = 0; i < 64; ++i) B.push_back(c.add_input(nn("B", i)));
  for (int i = 0; i < 64; ++i) C.push_back(c.add_input(nn("C", i)));
  for (int i = 0; i < 32; ++i) D.push_back(c.add_input(nn("D", i)));
  for (int i = 0; i < 8; ++i) S.push_back(c.add_input(nn("S", i)));
  const NetId en = c.add_input("EN");

  // 64-bit adder: SUM[0..63] + COUT.
  std::vector<NetId> sum;
  NetId cout = logic::kNoNet;
  rca(c, "ADD", A, B, sum, cout);
  for (int i = 0; i < 64; ++i) c.mark_output(sum[static_cast<std::size_t>(i)]);
  c.mark_output(cout);

  // Y[0..31]: S0-selected mux between C-high and D ^ A-low.
  const NetId ns0 = g(c, GateType::kInv, "NS0", {S[0]});
  for (int i = 0; i < 32; ++i) {
    const NetId m = g(c, GateType::kXor2, nn("YM", i),
                      {D[static_cast<std::size_t>(i)],
                       A[static_cast<std::size_t>(i)]});
    c.mark_output(mux(c, nn("Y", i), S[0], ns0,
                      C[static_cast<std::size_t>(i + 32)], m));
  }

  // EQ[0..15]: 4-bit segment equality of A vs C.
  for (int j = 0; j < 16; ++j) {
    NetId eq = logic::kNoNet;
    for (int k = 0; k < 4; ++k) {
      const int i = 4 * j + k;
      const NetId x = g(c, GateType::kXnor2, nn("EX", i),
                        {A[static_cast<std::size_t>(i)],
                         C[static_cast<std::size_t>(i)]});
      eq = k == 0 ? x : g(c, GateType::kAnd2, nn("EA", i), {eq, x});
    }
    c.mark_output(eq);
  }

  // PAR[0..7]: parity of the 8-bit windows of C.
  for (int j = 0; j < 8; ++j) {
    NetId p = C[static_cast<std::size_t>(8 * j)];
    for (int k = 1; k < 8; ++k)
      p = g(c, GateType::kXor2, nn("PC", 8 * j + k),
            {p, C[static_cast<std::size_t>(8 * j + k)]});
    c.mark_output(p);
  }

  // PRI[0..15]: EN-gated priority encode over D[16..31].
  NetId none_above = en;
  for (int i = 0; i < 16; ++i) {
    c.mark_output(g(c, GateType::kAnd2, nn("PRI", i),
                    {D[static_cast<std::size_t>(16 + i)], none_above}));
    if (i + 1 < 16) {
      const NetId nd = g(c, GateType::kInv, nn("PN", i),
                         {D[static_cast<std::size_t>(16 + i)]});
      none_above = g(c, GateType::kAnd2, nn("PK", i), {none_above, nd});
    }
  }

  // MISC[0..2]: control parities and a B-byte OR rail.
  NetId sp = S[0];
  for (int i = 1; i < 8; ++i)
    sp = g(c, GateType::kXor2, nn("SP", i), {sp, S[static_cast<std::size_t>(i)]});
  c.mark_output(sp);
  c.mark_output(g(c, GateType::kAnd2, "M1", {en, S[7]}));
  NetId orb = B[0];
  for (int i = 1; i < 8; ++i)
    orb = g(c, GateType::kOr2, nn("OB", i), {orb, B[static_cast<std::size_t>(i)]});
  c.mark_output(orb);

  // RDO: redundant duplicate of the adder's low carry (bits 0..4) — the
  // checked d-rail is constant 0, giving the circuit a provably-redundant
  // fault tail in the spirit of the real c2670's untestable faults.
  c.mark_output(
      redundant_carry_check(c, "RD", A, B, 5, c.find_net("ADDC4"), en));
  return c;
}

/// c7552 stand-in: 207 PI, 108 PO — two chained 64-bit adders feeding an
/// XOR-mix stage keyed by K (the real c7552 is a 34-bit adder/comparator
/// with parity). The deepest and widest combinational corpus entry.
Circuit make_c7552() {
  Circuit c("c7552");
  std::vector<NetId> A, B, C, K;
  for (int i = 0; i < 64; ++i) A.push_back(c.add_input(nn("A", i)));
  for (int i = 0; i < 64; ++i) B.push_back(c.add_input(nn("B", i)));
  for (int i = 0; i < 64; ++i) C.push_back(c.add_input(nn("C", i)));
  for (int i = 0; i < 15; ++i) K.push_back(c.add_input(nn("K", i)));

  // T = A + B, U = T + C: S[0..63] = U, plus both carries later.
  std::vector<NetId> T, U;
  NetId cT = logic::kNoNet, cU = logic::kNoNet;
  rca(c, "T", A, B, T, cT);
  rca(c, "U", T, C, U, cU);
  for (int i = 0; i < 64; ++i) c.mark_output(U[static_cast<std::size_t>(i)]);

  // X[0..31]: 4-bit window parity of U, keyed by K and the A/B mix.
  for (int j = 0; j < 32; ++j) {
    NetId p = U[static_cast<std::size_t>(2 * j)];
    for (int k = 1; k < 4; ++k)
      p = g(c, GateType::kXor2, nn("XW", 4 * j + k),
            {p, U[static_cast<std::size_t>((2 * j + k) % 64)]});
    const NetId kk = g(c, GateType::kXor2, nn("XK", j),
                       {K[static_cast<std::size_t>(j % 15)],
                        B[static_cast<std::size_t>(63 - j)]});
    c.mark_output(g(c, GateType::kXor2, nn("X", j), {p, kk}));
  }

  // MISC[0..11]: carries, 8 equality segments of A vs C, 2 parities of K.
  c.mark_output(cT);
  c.mark_output(cU);
  for (int j = 0; j < 8; ++j) {
    NetId eq = logic::kNoNet;
    for (int k = 0; k < 8; ++k) {
      const int i = 8 * j + k;
      const NetId x = g(c, GateType::kXnor2, nn("QX", i),
                        {A[static_cast<std::size_t>(i)],
                         C[static_cast<std::size_t>(i)]});
      eq = k == 0 ? x : g(c, GateType::kAnd2, nn("QA", i), {eq, x});
    }
    c.mark_output(eq);
  }
  NetId kp0 = K[0], kp1 = K[1];
  for (int i = 2; i < 15; i += 2)
    kp0 = g(c, GateType::kXor2, nn("KP", i), {kp0, K[static_cast<std::size_t>(i)]});
  for (int i = 3; i < 15; i += 2)
    kp1 = g(c, GateType::kXor2, nn("KQ", i), {kp1, K[static_cast<std::size_t>(i)]});
  c.mark_output(kp0);
  c.mark_output(kp1);

  // RDO: redundant duplicate of the first adder's low carry — the same
  // constant-0 checker rail as the c2670 stand-in, so the deepest corpus
  // entry also carries a provably-redundant fault tail.
  c.mark_output(
      redundant_carry_check(c, "RD", A, B, 5, c.find_net("TC4"), K[0]));
  return c;
}

/// s1423 stand-in: 17 PI, 5 PO, 74 DFF — a 64-bit rotate-XOR datapath
/// register + 8-bit counter + 2 control flops (the real s1423 is a similar
/// register-dominated controller). Its full-scan view has 91 inputs — the
/// corpus witness that scan chains longer than 64 flops work end to end.
logic::SequentialCircuit make_s1423() {
  Circuit c("s1423");
  std::vector<NetId> D;
  for (int i = 0; i < 16; ++i) D.push_back(c.add_input(nn("D", i)));
  const NetId en = c.add_input("EN");

  std::vector<NetId> R, CNT;
  for (int i = 0; i < 64; ++i) R.push_back(c.net(nn("R", i)));
  for (int i = 0; i < 8; ++i) CNT.push_back(c.net(nn("CNT", i)));
  const NetId run = c.net("RUN");
  const NetId ph = c.net("PH");

  // RUN latches EN; PH toggles while running.
  const NetId run_d = g(c, GateType::kOr2, "RUND", {run, en});
  const NetId ph_d = g(c, GateType::kXor2, "PHD", {ph, run});

  // Datapath: R' = rot1(R) ^ (D replicated & run-gated) with a tap feedback.
  std::vector<NetId> R_d(64);
  for (int i = 0; i < 64; ++i) {
    const NetId rot = R[static_cast<std::size_t>((i + 63) % 64)];
    const NetId din = g(c, GateType::kAnd2, nn("RG", i),
                        {D[static_cast<std::size_t>(i % 16)], run});
    const NetId mixed = g(c, GateType::kXor2, nn("RX", i), {rot, din});
    R_d[static_cast<std::size_t>(i)] =
        (i % 16 == 5)
            ? g(c, GateType::kXor2, nn("RF", i),
                {mixed, R[static_cast<std::size_t>((i + 13) % 64)]})
            : mixed;
  }

  // 8-bit ripple counter, enabled by RUN.
  std::vector<NetId> CNT_d(8);
  NetId carry = run;
  for (int i = 0; i < 8; ++i) {
    CNT_d[static_cast<std::size_t>(i)] =
        g(c, GateType::kXor2, nn("CX", i),
          {CNT[static_cast<std::size_t>(i)], carry});
    if (i + 1 < 8)
      carry = g(c, GateType::kAnd2, nn("CA", i),
                {carry, CNT[static_cast<std::size_t>(i)]});
  }

  // POs: parity of R[0..15], R[63], CNT[7], RUN, PH.
  NetId par = R[0];
  for (int i = 1; i < 16; ++i)
    par = g(c, GateType::kXor2, nn("OP", i), {par, R[static_cast<std::size_t>(i)]});
  c.mark_output(par);
  c.mark_output(R[63]);
  c.mark_output(CNT[7]);
  c.mark_output(run);
  c.mark_output(ph);

  logic::SequentialCircuit seq(std::move(c));
  Circuit& core = seq.core();
  for (int i = 0; i < 64; ++i)
    seq.add_flop(nn("R", i), core.net(nn("R", i)),
                 R_d[static_cast<std::size_t>(i)]);
  for (int i = 0; i < 8; ++i)
    seq.add_flop(nn("CNT", i), core.net(nn("CNT", i)),
                 CNT_d[static_cast<std::size_t>(i)]);
  seq.add_flop("RUN", core.net("RUN"), run_d);
  seq.add_flop("PH", core.net("PH"), ph_d);
  return seq;
}

bool emit(const std::string& dir, const std::string& file,
          const logic::SequentialCircuit& seq) {
  const std::string diag = seq.validate();
  if (!diag.empty()) {
    std::fprintf(stderr, "%s: invalid: %s\n", file.c_str(), diag.c_str());
    return false;
  }
  const std::string path = dir + "/" + file;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << io::write_bench(seq);
  std::printf("%-14s %4zu gates, %2zu PI, %2zu PO, %2zu DFF\n", file.c_str(),
              seq.core().num_gates(), seq.core().inputs().size(),
              seq.core().outputs().size(), seq.flops().size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "bench/circuits";
  bool ok = true;
  ok &= emit(dir, "c432.bench", logic::SequentialCircuit(make_c432()));
  ok &= emit(dir, "c880.bench", logic::SequentialCircuit(make_c880()));
  ok &= emit(dir, "c1355.bench", logic::SequentialCircuit(make_c1355()));
  ok &= emit(dir, "s344.bench", make_s344());
  ok &= emit(dir, "c2670.bench", logic::SequentialCircuit(make_c2670()));
  ok &= emit(dir, "c7552.bench", logic::SequentialCircuit(make_c7552()));
  ok &= emit(dir, "s1423.bench", make_s1423());
  ok &= emit(dir, "mul10.bench",
             logic::SequentialCircuit(logic::array_multiplier(10)));
  return ok ? 0 : 1;
}
