//===- bench/parse_cost.cpp - Experiment E24: front-end cost --------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cost profile of the arena-backed front end (DESIGN.md §14), in three
/// tables:
///
///   1. Parse + lower throughput on generated specs from ~1 KB to
///      ~50 MB: the streaming state-stack parser into a bump arena
///      (`parseProgram`, `AstArena::Alloc::Bump`) against the retained
///      baseline that materialises the whole token vector and heap
///      allocates every node (`parseProgramReference`,
///      `AstArena::Alloc::PerNode`). Both sides include `buildCfg`, so
///      the number is the full source-to-CFG pipeline. Gate: >= 5x on
///      the largest spec, with byte-identical canonical prints.
///
///   2. The tree-walking analysis stages over the two node layouts —
///      CFG lowering, the register/buffer scans, and canonical
///      printing — on a bump-arena tree vs a per-node-heap tree of the
///      same program. Only the storage differs; these stages are
///      bandwidth-bound at scale, so dense packing (no allocator
///      headers or bin rounding) shows up directly. Gate: a measurable
///      (>= 1.05x best-of-reps) speedup on the largest probe, plus
///      unified-analysis parity (identical findings) between layouts.
///      The dataflow fixpoints themselves are layout-neutral by
///      construction — they iterate over the flat CFG vector and the
///      analysis state, not the AST — which the parity check exploits.
///
///   3. Incremental re-analysis (analysis/incremental.h): a workspace
///      of per-task slices, cold analysis vs a single-slice edit.
///      Gate: >= 3x, and a full-reanalysis cross-check (CrossCheck
///      mode plus an independent cold analyzer) must render
///      byte-identical timing tables and lint reports.
///
/// Emits BENCH_parse_cost.json. `--smoke` (or RPROSA_BENCH_SMOKE=1)
/// shrinks the spec sizes and the workspace; the throughput gates are
/// scale-dependent (the arena's win is bandwidth-bound, so it needs
/// MB-scale specs), so smoke mode reports them informationally and
/// binds only the correctness gates — byte-identity, findings parity,
/// the incremental speedup, and the cross-check. Exit 0 iff the
/// binding gates hold.
///
//===----------------------------------------------------------------------===//

#include "analysis/cfg.h"
#include "analysis/dataflow/analyses.h"
#include "analysis/dataflow/diagnostics.h"
#include "analysis/incremental.h"
#include "caesium/parser.h"
#include "reference_parser.h"
#include "caesium/print.h"
#include "support/check.h"
#include "support/parallel.h"
#include "support/table.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace rprosa;
using namespace rprosa::analysis;
namespace cs = rprosa::caesium;

namespace {

/// Best-of-\p Reps wall time of \p Fn, in microseconds.
template <class Fn> double timeUs(int Reps, Fn &&F) {
  double Best = 0;
  for (int R = 0; R < Reps; ++R) {
    auto T0 = std::chrono::steady_clock::now();
    F();
    auto T1 = std::chrono::steady_clock::now();
    double Us = std::chrono::duration<double, std::micro>(T1 - T0).count();
    if (R == 0 || Us < Best)
      Best = Us;
  }
  return Best;
}

/// A generated large spec: \p Loops sequential bounded counter loops
/// cycling through the 8 machine registers (the same family
/// bench/analysis_cost scales with — ~46 bytes per loop).
std::string syntheticSpec(std::size_t Loops) {
  std::string Src;
  for (std::size_t I = 0; I < Loops; ++I) {
    std::string R = "r" + std::to_string(I % 8);
    Src += R + " = 0;\n";
    Src += "while ((" + R + " < 10)) { " + R + " = (" + R + " + 1); }\n";
  }
  return Src;
}

/// One spec size's parse + lower profile, both pipelines.
struct ParseCost {
  std::size_t Loops = 0;
  std::size_t Bytes = 0;
  std::size_t CfgNodes = 0;
  bool PrintsIdentical = false;
  double NewUs = 0; ///< Streaming parser + bump arena + buildCfg.
  double RefUs = 0; ///< Token-vector parser + per-node heap + buildCfg.
};

ParseCost profileParse(std::size_t Loops, int Reps) {
  ParseCost Out;
  Out.Loops = Loops;
  std::string Src = syntheticSpec(Loops);
  Out.Bytes = Src.size();

  // Steady state: each pipeline re-parses into its own arena, reset()
  // between rounds — the shape of a long-running ingest loop. reset()
  // is inside the timed region: tearing the previous tree down is part
  // of a re-parse's cost in both designs (O(chunks) for the bump arena,
  // one deallocation per node for the per-node baseline).
  // Both pipelines lower into a persistent Cfg buffer (the reusing
  // buildCfg overload) so reps after the first touch only warm pages —
  // again, the shape of a long-running ingest loop, and the same
  // shared cost on both sides.
  cs::AstArena NewArena(cs::AstArena::Alloc::Bump);
  Cfg NewG;
  Out.NewUs = timeUs(Reps, [&] {
    NewArena.reset();
    auto P = cs::parseProgram(NewArena, Src);
    RPROSA_CHECK(P.has_value(), "generated spec must parse");
    buildCfg(*P, NewG);
    Out.CfgNodes = NewG.size();
  });
  cs::AstArena RefArena(cs::AstArena::Alloc::PerNode);
  Cfg RefG;
  Out.RefUs = timeUs(Reps, [&] {
    RefArena.reset();
    auto P = cs::parseProgramReference(RefArena, Src);
    RPROSA_CHECK(P.has_value(), "reference parse must succeed");
    buildCfg(*P, RefG);
    RPROSA_CHECK(RefG.size() == Out.CfgNodes, "same CFG shape");
  });

  // Byte-identity of the two pipelines on this spec.
  cs::AstArena NewA(cs::AstArena::Alloc::Bump);
  cs::AstArena RefA(cs::AstArena::Alloc::PerNode);
  Out.PrintsIdentical = cs::printStmt(**cs::parseProgram(NewA, Src)) ==
                        cs::printStmt(**cs::parseProgramReference(RefA, Src));
  return Out;
}

/// One spec size's tree-walk profile, both node layouts.
struct LayoutCost {
  std::size_t Loops = 0;
  std::size_t CfgNodes = 0;
  double BumpUs = 0;
  double PerNodeUs = 0;
};

LayoutCost profileLayout(std::size_t Loops, int Reps) {
  LayoutCost Out;
  Out.Loops = Loops;
  std::string Src = syntheticSpec(Loops);

  // Parse once per layout (parsing is table 1's story); time the
  // AST-walking analysis stages — lowering, expression scans, canonical
  // printing — over the two storage layouts. The same parser builds
  // both trees, so the walks are structurally identical; only node
  // placement differs.
  cs::AstArena Bump(cs::AstArena::Alloc::Bump);
  cs::AstArena Per(cs::AstArena::Alloc::PerNode);
  cs::StmtPtr BumpTree = *cs::parseProgram(Bump, Src);
  cs::StmtPtr PerTree = *cs::parseProgram(Per, Src);

  std::size_t Sink = 0;
  auto Walks = [&Sink](const cs::StmtPtr &Tree, Cfg &G) {
    buildCfg(Tree, G);
    Sink += G.numRegs() + G.numBufs();
    Sink += cs::printStmt(*Tree).size();
  };
  Cfg BumpG, PerG;
  Out.BumpUs = timeUs(Reps, [&] { Walks(BumpTree, BumpG); });
  Out.PerNodeUs = timeUs(Reps, [&] { Walks(PerTree, PerG); });
  Out.CfgNodes = BumpG.size();
  RPROSA_CHECK(PerG.size() == BumpG.size(), "same CFG shape");
  RPROSA_CHECK(Sink > 0, "walks must observe the tree");
  return Out;
}

/// Semantic parity between the layouts: the unified dataflow analyses
/// must produce identical findings over both trees (they iterate the
/// flat CFG vector, so the AST layout may only affect speed, never
/// results). Generated specs are clean by construction, so "identical"
/// here means empty on both sides.
bool layoutFindingsAgree(std::size_t Loops) {
  std::string Src = syntheticSpec(Loops);
  cs::AstArena Bump(cs::AstArena::Alloc::Bump);
  cs::AstArena Per(cs::AstArena::Alloc::PerNode);
  dataflow::AnalysisOptions Opts;
  auto FromBump =
      dataflow::runUnifiedAnalyses(buildCfg(*cs::parseProgram(Bump, Src)), Opts);
  auto FromPer =
      dataflow::runUnifiedAnalyses(buildCfg(*cs::parseProgram(Per, Src)), Opts);
  return FromBump.empty() && FromPer.empty();
}

/// The incremental workspace profile: cold vs single-edit rounds.
struct IncCost {
  std::size_t Slices = 0;
  double ColdUs = 0;
  double EditUs = 0;
  bool CrossCheckOk = false;
  IncrementalStats Stats;
};

/// \p N distinct per-task slices: a unique leading assignment keeps the
/// canonical programs (and so the cache keys) distinct per slice.
std::vector<TaskSlice> workspaceSlices(std::size_t N, std::size_t Loops) {
  std::string Body = syntheticSpec(Loops);
  std::vector<TaskSlice> Slices;
  for (std::size_t I = 0; I < N; ++I)
    Slices.push_back({"task-" + std::to_string(I),
                      "r7 = " + std::to_string(I + 100) + ";\n" + Body,
                      /*NumSockets=*/2});
  return Slices;
}

StaticCostParams workspaceParams() {
  StaticCostParams P;
  P.Wcets = BasicActionWcets::typicalDeployment();
  P.Instr = InstructionCosts::unit();
  P.MaxCallbackWcet = 10 * TickUs;
  return P;
}

IncCost profileIncremental(std::size_t NumSlices, std::size_t Loops,
                           int Reps) {
  IncCost Out;
  Out.Slices = NumSlices;
  std::vector<TaskSlice> Slices = workspaceSlices(NumSlices, Loops);
  StaticCostParams P = workspaceParams();

  // Cold: a fresh analyzer per repetition — every slice misses.
  Out.ColdUs = timeUs(Reps, [&] {
    WorkspaceAnalyzer WA(P);
    WA.analyze(Slices);
  });

  // Single-edit rounds: one analyzer, one never-seen edit per round so
  // each timed pass re-analyzes exactly one slice.
  WorkspaceAnalyzer Warm(P);
  Warm.analyze(Slices);
  std::vector<TaskSlice> Edited = Slices;
  for (int R = 0; R < Reps; ++R) {
    Edited.back().Source =
        Slices.back().Source + "r6 = " + std::to_string(R) + ";\n";
    double Us = timeUs(1, [&] { Warm.analyze(Edited); });
    if (R == 0 || Us < Out.EditUs)
      Out.EditUs = Us;
  }
  Out.Stats = Warm.cache().stats();

  // Full-reanalysis cross-check, two ways. (a) CrossCheck mode
  // re-derives every hit and RPROSA_CHECKs rendered byte-identity
  // internally; (b) an independent cold analyzer over the final edited
  // workspace must render the same timing tables and lint reports as
  // the warm cache served.
  AnalysisCache::Options CC;
  CC.CrossCheck = true;
  WorkspaceAnalyzer Checked(P, CC);
  Checked.analyze(Edited);
  std::vector<SliceAnalysis> Re = Checked.analyze(Edited);
  Out.CrossCheckOk = Checked.cache().stats().CrossChecks > 0;

  WorkspaceAnalyzer Cold(P);
  std::vector<SliceAnalysis> FromCold = Cold.analyze(Edited);
  std::vector<SliceAnalysis> FromWarm = Warm.analyze(Edited);
  RPROSA_CHECK(FromCold.size() == FromWarm.size(), "same workspace");
  for (std::size_t I = 0; I < FromCold.size(); ++I) {
    Out.CrossCheckOk &= FromWarm[I].Reused;
    Out.CrossCheckOk &= FromCold[I].Timing.describeTable() ==
                        FromWarm[I].Timing.describeTable();
    Out.CrossCheckOk &=
        dataflow::renderText("x", FromCold[I].Lint) ==
        dataflow::renderText("x", FromWarm[I].Lint);
  }
  (void)Re;
  return Out;
}

std::string fmtUs(double Us) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f", Us);
  return Buf;
}

std::string fmtX(double X) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.2fx", X);
  return Buf;
}

std::string fmtMbps(std::size_t Bytes, double Us) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f",
                Us > 0 ? Bytes / Us : 0.0); // bytes/us == MB/s.
  return Buf;
}

void writeJson(const std::vector<ParseCost> &Parses,
               const std::vector<LayoutCost> &Layouts, bool LayoutParity,
               const IncCost &Inc, bool Smoke, bool Ok) {
  std::FILE *F = std::fopen("BENCH_parse_cost.json", "w");
  if (!F) {
    std::printf("(could not write BENCH_parse_cost.json)\n");
    return;
  }
  std::fprintf(F, "{\n  \"experiment\": \"E24-parse-cost\",\n");
  std::fprintf(F, "  \"smoke\": %s,\n", Smoke ? "true" : "false");
  std::fprintf(F, "  \"passed\": %s,\n", Ok ? "true" : "false");
  std::fprintf(F, "  \"parse_lower\": [\n");
  for (std::size_t I = 0; I < Parses.size(); ++I) {
    const ParseCost &P = Parses[I];
    std::fprintf(F,
                 "    {\"loops\": %zu, \"bytes\": %zu, \"cfg_nodes\": %zu, "
                 "\"prints_identical\": %s, \"stream_bump_us\": %.1f, "
                 "\"tokenvec_pernode_us\": %.1f, \"speedup\": %.2f}%s\n",
                 P.Loops, P.Bytes, P.CfgNodes,
                 P.PrintsIdentical ? "true" : "false", P.NewUs, P.RefUs,
                 P.NewUs > 0 ? P.RefUs / P.NewUs : 0.0,
                 I + 1 < Parses.size() ? "," : "");
  }
  std::fprintf(F, "  ],\n  \"analysis_layout\": [\n");
  for (std::size_t I = 0; I < Layouts.size(); ++I) {
    const LayoutCost &L = Layouts[I];
    std::fprintf(F,
                 "    {\"loops\": %zu, \"cfg_nodes\": %zu, "
                 "\"bump_us\": %.1f, "
                 "\"pernode_us\": %.1f, \"speedup\": %.2f}%s\n",
                 L.Loops, L.CfgNodes, L.BumpUs, L.PerNodeUs,
                 L.BumpUs > 0 ? L.PerNodeUs / L.BumpUs : 0.0,
                 I + 1 < Layouts.size() ? "," : "");
  }
  std::fprintf(F, "  ],\n  \"layout_findings_identical\": %s,\n",
               LayoutParity ? "true" : "false");
  std::fprintf(F,
               "  \"incremental\": {\"slices\": %zu, "
               "\"cold_us\": %.1f, \"single_edit_us\": %.1f, "
               "\"speedup\": %.2f, \"cross_check_ok\": %s, "
               "\"timing_hits\": %llu, \"timing_misses\": %llu}\n",
               Inc.Slices, Inc.ColdUs, Inc.EditUs,
               Inc.EditUs > 0 ? Inc.ColdUs / Inc.EditUs : 0.0,
               Inc.CrossCheckOk ? "true" : "false",
               static_cast<unsigned long long>(Inc.Stats.TimingHits),
               static_cast<unsigned long long>(Inc.Stats.TimingMisses));
  std::fprintf(F, "}\n");
  std::fclose(F);
  std::printf("wrote BENCH_parse_cost.json\n");
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = envFlag("RPROSA_BENCH_SMOKE");
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;

  std::printf("=== E24: arena-backed front-end cost ===\n\n");
  bool Ok = true;

  std::printf("--- parse + lower throughput (streaming/bump vs "
              "token-vector/per-node) ---\n\n");
  std::vector<std::size_t> Sizes =
      Smoke ? std::vector<std::size_t>{20, 320, 5120}
            : std::vector<std::size_t>{20, 320, 5120, 81920, 1140000};
  std::vector<ParseCost> Parses;
  TableWriter PT({"loops", "bytes", "cfg nodes", "identical", "stream us",
                  "tokenvec us", "stream MB/s", "tokenvec MB/s",
                  "speedup"});
  for (std::size_t Loops : Sizes) {
    ParseCost P = profileParse(Loops, Loops > 100000 ? 3 : 5);
    PT.addRow({std::to_string(P.Loops), std::to_string(P.Bytes),
               std::to_string(P.CfgNodes),
               P.PrintsIdentical ? "yes" : "NO", fmtUs(P.NewUs),
               fmtUs(P.RefUs), fmtMbps(P.Bytes, P.NewUs),
               fmtMbps(P.Bytes, P.RefUs), fmtX(P.RefUs / P.NewUs)});
    Ok &= P.PrintsIdentical;
    Parses.push_back(P);
  }
  std::printf("%s\n", PT.renderAscii().c_str());
  // The headline gate: >= 5x on the largest generated spec. The win is
  // bandwidth-bound, so it only fully materialises at MB scale —
  // smoke's shrunken specs report it informationally.
  double ParseSpeedup = Parses.back().RefUs / Parses.back().NewUs;
  if (!Smoke)
    Ok &= ParseSpeedup >= 5.0;
  std::printf("largest spec (%zu bytes): %s parse+lower speedup "
              "(gate: >= 5x%s)\n\n",
              Parses.back().Bytes, fmtX(ParseSpeedup).c_str(),
              Smoke ? ", informational in smoke" : "");

  std::printf("--- tree-walk analysis stages (lower + scans + print), "
              "bump vs per-node layout ---\n\n");
  std::vector<LayoutCost> Layouts;
  TableWriter LT({"loops", "cfg nodes", "bump us", "per-node us",
                  "speedup"});
  for (std::size_t Loops : Smoke ? std::vector<std::size_t>{1024, 8192}
                                 : std::vector<std::size_t>{8192, 81920,
                                                            1140000}) {
    LayoutCost L = profileLayout(Loops, Loops > 100000 ? 3 : 5);
    LT.addRow({std::to_string(L.Loops), std::to_string(L.CfgNodes),
               fmtUs(L.BumpUs), fmtUs(L.PerNodeUs),
               fmtX(L.PerNodeUs / L.BumpUs)});
    Layouts.push_back(L);
  }
  std::printf("%s\n", LT.renderAscii().c_str());
  double LayoutSpeedup = Layouts.back().PerNodeUs / Layouts.back().BumpUs;
  if (!Smoke)
    Ok &= LayoutSpeedup >= 1.05;
  bool Parity = layoutFindingsAgree(1024);
  Ok &= Parity;
  std::printf("largest layout probe: %s tree-walk speedup from the bump "
              "layout (gate: >= 1.05x%s); unified-analysis findings "
              "%s between layouts\n\n",
              fmtX(LayoutSpeedup).c_str(),
              Smoke ? ", informational in smoke" : "",
              Parity ? "identical" : "DIFFER");

  std::printf("--- incremental re-analysis (single-slice edit) ---\n\n");
  IncCost Inc = profileIncremental(Smoke ? 8 : 24, Smoke ? 8 : 16, 5);
  double IncSpeedup = Inc.EditUs > 0 ? Inc.ColdUs / Inc.EditUs : 0.0;
  TableWriter IT({"slices", "cold us", "single-edit us", "speedup",
                  "cross-check"});
  IT.addRow({std::to_string(Inc.Slices), fmtUs(Inc.ColdUs),
             fmtUs(Inc.EditUs), fmtX(IncSpeedup),
             Inc.CrossCheckOk ? "byte-identical" : "MISMATCH"});
  std::printf("%s\n", IT.renderAscii().c_str());
  Ok &= IncSpeedup >= 3.0 && Inc.CrossCheckOk;
  std::printf("single-task edit: %s vs cold (gate: >= 3x, cross-check "
              "byte-identical)\n\n",
              fmtX(IncSpeedup).c_str());

  writeJson(Parses, Layouts, Parity, Inc, Smoke, Ok);
  if (!Ok) {
    std::printf("E24 FAILED: a front-end gate did not hold (see the "
                "tables above)\n");
    return 1;
  }
  std::printf("E24 reproduced: the streaming parser + bump arena beats "
              "the token-vector + per-node baseline >= 5x on the "
              "largest spec with byte-identical programs, the dense "
              "layout measurably speeds up the tree-walking analysis "
              "stages with identical findings, and single-task edits "
              "re-analyze >= 3x faster with a byte-identical "
              "cross-check.\n");
  return 0;
}
