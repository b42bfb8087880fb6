//===- bench/analysis_cost.cpp - Experiment E20: dataflow solver cost -----===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cost profile of the unified dataflow analyses (analysis/dataflow):
/// for N in {1, 2, 4, 8, 16} sockets, the embedded Rössl program is
/// lowered and each engine instance — value-range, definite-init,
/// dead-code, marker-discipline, and the composed runUnifiedAnalyses —
/// is timed (best of 5 repetitions), alongside the solver telemetry
/// the engine reports (node visits, convergence). A second table runs
/// the full mutation corpus (protocol + timing + value-range) through
/// runUnifiedAnalyses at one socket count to show per-program cost on
/// defective inputs. A third scales generated specs in two shapes:
/// sequential counter loops, and counter loops nested in one scheduler
/// loop (every head in one strongly connected region), with the loop
/// classification (inferLoopBounds) and the fuel-termination lint
/// timed on their own. Emits BENCH_analysis_cost.json.
///
/// Exit 0 iff every solve converges, the embedded program stays
/// note-clean at every socket count, and every value-range mutant is
/// flagged — the lint gate's cost, demonstrated affordable.
///
//===----------------------------------------------------------------------===//

#include "analysis/dataflow/analyses.h"
#include "analysis/lint.h"
#include "analysis/mutants.h"
#include "analysis/timing/loop_bounds.h"
#include "caesium/parser.h"
#include "caesium/rossl_program.h"
#include "support/check.h"
#include "support/table.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::analysis::dataflow;
namespace cs = rprosa::caesium;

namespace {

constexpr int Reps = 5;

/// Best-of-Reps wall time of \p Fn, in microseconds.
template <class Fn> double timeUs(Fn &&F) {
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

/// One socket count's profile over the embedded program.
struct SocketCost {
  std::uint32_t NumSockets = 0;
  std::size_t CfgNodes = 0;
  std::uint64_t RangeVisits = 0; ///< Value-range transfer applications.
  bool RangeConverged = false;
  std::size_t Findings = 0; ///< Unified findings (embedded: notes only).
  Severity MaxSev = Severity::Note;
  double RangeUs = 0;
  double InitUs = 0;
  double DeadUs = 0;
  double MarkerUs = 0;
  double UnifiedUs = 0;
};

/// One generated-spec size's profile (the scaling probe).
struct ScaleCost {
  const char *Shape = "";
  std::size_t Loops = 0;
  std::size_t CfgNodes = 0;
  std::uint64_t RangeVisits = 0;
  bool Converged = false;
  std::size_t Findings = 0;
  double UnifiedUs = 0;
  double LoopBoundsUs = 0; ///< inferLoopBounds alone.
  double FuelLintUs = 0;   ///< lintFuelTermination alone.
};

/// A generated large spec: \p Loops sequential bounded counter loops
/// cycling through the 8 machine registers — every loop is a widening
/// point for the interval solver, so node count and loop count grow
/// together.
std::string syntheticSpec(std::size_t Loops) {
  std::string Src;
  for (std::size_t I = 0; I < Loops; ++I) {
    std::string R = "r" + std::to_string(I % 8);
    Src += R + " = 0;\n";
    Src += "while ((" + R + " < 10)) { " + R + " = (" + R + " + 1); }\n";
  }
  return Src;
}

/// The same counter loops nested in one scheduler loop between two
/// markers: every loop head shares the scheduler's strongly connected
/// region, the worst case for any loop classification that works per
/// head rather than per region.
std::string nestedSpec(std::size_t Loops) {
  std::string Src = "while (fuel()) {\n  selection_start();\n";
  for (std::size_t I = 0; I < Loops; ++I) {
    std::string R = "r" + std::to_string(I % 8);
    Src += "  " + R + " = 0;\n";
    Src += "  while ((" + R + " < 10)) { " + R + " = (" + R + " + 1); }\n";
  }
  return Src + "  idling_start();\n}\n";
}

ScaleCost profileSynthetic(const char *Shape, const std::string &Spec,
                           std::size_t Loops) {
  ScaleCost Out;
  Out.Shape = Shape;
  Out.Loops = Loops;

  cs::AstArena Arena;
  auto Parsed = cs::parseProgram(Arena, Spec);
  RPROSA_CHECK(Parsed.has_value(), "synthetic spec must parse");
  Cfg G = buildCfg(*Parsed);
  Out.CfgNodes = G.size();

  AnalysisOptions Opts;
  ValueRangeResult VR = analyzeValueRanges(G, Opts);
  Out.RangeVisits = VR.NodeVisits;
  Out.Converged = VR.Converged;
  Out.Findings = runUnifiedAnalyses(G, Opts).size();
  Out.UnifiedUs = timeUs([&] { runUnifiedAnalyses(G, Opts); });
  Out.LoopBoundsUs = timeUs([&] { inferLoopBounds(G); });
  Out.FuelLintUs = timeUs([&] { lintFuelTermination(G); });
  return Out;
}

/// One corpus program's cost under the full unified run.
struct CorpusCost {
  std::string Name;
  std::size_t Findings = 0;
  bool RangeFlagged = false; ///< Expected check-id present (range corpus).
  bool Expected = false;     ///< Row participates in the range gate.
  double UnifiedUs = 0;
};

SocketCost profile(std::uint32_t N) {
  SocketCost Out;
  Out.NumSockets = N;

  AnalysisOptions Opts;
  Opts.NumSockets = N;
  Cfg G = buildCfg(cs::buildRosslProgram(N));
  Out.CfgNodes = G.size();

  ValueRangeResult VR = analyzeValueRanges(G, Opts);
  Out.RangeVisits = VR.NodeVisits;
  Out.RangeConverged = VR.Converged;

  std::vector<Finding> Unified = runUnifiedAnalyses(G, Opts);
  Out.Findings = Unified.size();
  Out.MaxSev = maxSeverity(Unified);

  Out.RangeUs = timeUs([&] { analyzeValueRanges(G, Opts); });
  Out.InitUs = timeUs([&] { analyzeDefiniteInit(G); });
  Out.DeadUs = timeUs([&] { analyzeDeadCode(G, Opts); });
  Out.MarkerUs = timeUs([&] { analyzeMarkerDiscipline(G); });
  Out.UnifiedUs = timeUs([&] { runUnifiedAnalyses(G, Opts); });
  return Out;
}

std::string fmtUs(double Us) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f", Us);
  return Buf;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S)
    if (C == '"' || C == '\\')
      Out += std::string("\\") + C;
    else
      Out += C;
  return Out;
}

void writeJson(const std::vector<SocketCost> &Sweeps,
               const std::vector<CorpusCost> &Corpus,
               const std::vector<ScaleCost> &Scales, bool Ok) {
  std::FILE *F = std::fopen("BENCH_analysis_cost.json", "w");
  if (!F) {
    std::printf("(could not write BENCH_analysis_cost.json)\n");
    return;
  }
  std::fprintf(F, "{\n  \"experiment\": \"E20-analysis-cost\",\n");
  std::fprintf(F, "  \"passed\": %s,\n", Ok ? "true" : "false");
  std::fprintf(F, "  \"sockets\": [\n");
  for (std::size_t I = 0; I < Sweeps.size(); ++I) {
    const SocketCost &S = Sweeps[I];
    std::fprintf(F,
                 "    {\"sockets\": %u, \"cfg_nodes\": %zu, "
                 "\"range_node_visits\": %llu, \"range_converged\": %s, "
                 "\"findings\": %zu, \"max_severity\": \"%s\", "
                 "\"range_us\": %.1f, \"definite_init_us\": %.1f, "
                 "\"dead_code_us\": %.1f, \"marker_us\": %.1f, "
                 "\"unified_us\": %.1f}%s\n",
                 S.NumSockets, S.CfgNodes,
                 static_cast<unsigned long long>(S.RangeVisits),
                 S.RangeConverged ? "true" : "false", S.Findings,
                 toString(S.MaxSev), S.RangeUs, S.InitUs, S.DeadUs,
                 S.MarkerUs, S.UnifiedUs,
                 I + 1 < Sweeps.size() ? "," : "");
  }
  std::fprintf(F, "  ],\n  \"corpus\": [\n");
  for (std::size_t I = 0; I < Corpus.size(); ++I) {
    const CorpusCost &C = Corpus[I];
    std::fprintf(F,
                 "    {\"name\": \"%s\", \"findings\": %zu, "
                 "\"unified_us\": %.1f}%s\n",
                 jsonEscape(C.Name).c_str(), C.Findings, C.UnifiedUs,
                 I + 1 < Corpus.size() ? "," : "");
  }
  std::fprintf(F, "  ],\n  \"generated_specs\": [\n");
  for (std::size_t I = 0; I < Scales.size(); ++I) {
    const ScaleCost &S = Scales[I];
    std::fprintf(F,
                 "    {\"shape\": \"%s\", \"loops\": %zu, "
                 "\"cfg_nodes\": %zu, "
                 "\"range_node_visits\": %llu, \"range_converged\": %s, "
                 "\"findings\": %zu, \"unified_us\": %.1f, "
                 "\"loop_bounds_us\": %.1f, "
                 "\"fuel_termination_us\": %.1f}%s\n",
                 S.Shape, S.Loops, S.CfgNodes,
                 static_cast<unsigned long long>(S.RangeVisits),
                 S.Converged ? "true" : "false", S.Findings, S.UnifiedUs,
                 S.LoopBoundsUs, S.FuelLintUs,
                 I + 1 < Scales.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  std::printf("wrote BENCH_analysis_cost.json\n");
}

} // namespace

int main() {
  std::printf("=== E20: cost of the unified dataflow analyses ===\n\n");

  bool Ok = true;
  std::vector<SocketCost> Sweeps;
  for (std::uint32_t N : {1u, 2u, 4u, 8u, 16u})
    Sweeps.push_back(profile(N));

  TableWriter T({"sockets", "cfg nodes", "range visits", "converged",
                 "findings", "max sev", "range us", "init us", "dead us",
                 "marker us", "unified us"});
  for (const SocketCost &S : Sweeps) {
    T.addRow({std::to_string(S.NumSockets), std::to_string(S.CfgNodes),
              std::to_string(S.RangeVisits),
              S.RangeConverged ? "yes" : "NO",
              std::to_string(S.Findings), toString(S.MaxSev),
              fmtUs(S.RangeUs), fmtUs(S.InitUs), fmtUs(S.DeadUs),
              fmtUs(S.MarkerUs), fmtUs(S.UnifiedUs)});
    // The gate: the fixpoint must converge and the embedded program
    // must stay below the lint gate's threshold at every width.
    Ok &= S.RangeConverged && S.MaxSev == Severity::Note;
  }
  std::printf("%s\n", T.renderAscii().c_str());
  std::printf("times are best-of-%d wall clock; 'range visits' counts "
              "transfer applications of the interval solver, the "
              "engine's machine-independent work metric.\n\n", Reps);

  std::printf("--- unified run over the mutation corpus (3 sockets) "
              "---\n\n");
  const std::uint32_t CorpusN = 3;
  AnalysisOptions Opts;
  Opts.NumSockets = CorpusN;
  std::vector<CorpusCost> Corpus;
  std::vector<Mutant> All = protocolMutantCorpus(CorpusN);
  for (Mutant &M : timingMutantCorpus(CorpusN))
    All.push_back(std::move(M));
  for (Mutant &M : valueRangeMutantCorpus(CorpusN))
    All.push_back(std::move(M));

  TableWriter CT({"program", "findings", "expected check-id", "flagged",
                  "unified us"});
  for (const Mutant &Mu : All) {
    CorpusCost Row;
    Row.Name = Mu.Name;
    Cfg G = buildCfg(Mu.Program);
    std::vector<Finding> Fs = runUnifiedAnalyses(G, Opts);
    Row.Findings = Fs.size();
    Row.Expected = !Mu.ExpectedCheckId.empty();
    for (const Finding &F : Fs)
      Row.RangeFlagged |= F.CheckId == Mu.ExpectedCheckId;
    Row.UnifiedUs = timeUs([&] { runUnifiedAnalyses(G, Opts); });
    CT.addRow({Row.Name, std::to_string(Row.Findings),
               Row.Expected ? Mu.ExpectedCheckId : "-",
               Row.Expected ? (Row.RangeFlagged ? "yes" : "MISSED") : "-",
               fmtUs(Row.UnifiedUs)});
    // Every value-range mutant must surface its expected check-id even
    // inside the composed run.
    Ok &= !Row.Expected || Row.RangeFlagged;
    Corpus.push_back(Row);
  }
  std::printf("%s\n", CT.renderAscii().c_str());

  std::printf("--- generated large specs (counter loops: sequential, "
              "and nested in one scheduler loop) ---\n\n");
  std::vector<ScaleCost> Scales;
  for (std::size_t Loops : {64u, 256u, 1024u})
    Scales.push_back(
        profileSynthetic("sequential", syntheticSpec(Loops), Loops));
  for (std::size_t Loops : {250u, 500u, 1000u, 2000u})
    Scales.push_back(profileSynthetic("nested", nestedSpec(Loops), Loops));
  TableWriter ST({"shape", "loops", "cfg nodes", "range visits",
                  "converged", "findings", "unified us", "loop bounds us",
                  "fuel lint us"});
  for (const ScaleCost &S : Scales) {
    ST.addRow({S.Shape, std::to_string(S.Loops), std::to_string(S.CfgNodes),
               std::to_string(S.RangeVisits),
               S.Converged ? "yes" : "NO", std::to_string(S.Findings),
               fmtUs(S.UnifiedUs), fmtUs(S.LoopBoundsUs),
               fmtUs(S.FuelLintUs)});
    // The generated specs are clean by construction (every register
    // initialised, every loop bounded and varying): any finding at all
    // is a false positive, and divergence would make the gate useless
    // on large inputs.
    Ok &= S.Converged && S.Findings == 0;
  }
  std::printf("%s\n", ST.renderAscii().c_str());

  writeJson(Sweeps, Corpus, Scales, Ok);
  if (!Ok) {
    std::printf("E20 FAILED: a solve diverged, the embedded program "
                "tripped the lint gate, or a value-range mutant "
                "escaped\n");
    return 1;
  }
  std::printf("E20 reproduced: the unified analyses converge at every "
              "socket width in microseconds, the embedded program is "
              "note-clean, and every value-range mutant is flagged.\n");
  return 0;
}
