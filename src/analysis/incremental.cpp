//===- analysis/incremental.cpp - Content-hash keyed re-analysis ----------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/incremental.h"

#include "analysis/abstract_state.h"
#include "analysis/cfg.h"
#include "analysis/dataflow/diagnostics.h"

#include "caesium/parser.h"
#include "caesium/print.h"

#include "support/check.h"

namespace rprosa::analysis {

std::uint64_t fnv1a64(std::string_view Bytes, std::uint64_t H) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

namespace {

/// Appends one labelled integer field to a canonical key. The label
/// keeps adjacent fields from aliasing under concatenation (e.g.
/// (1, 12) vs (11, 2)).
void field(std::string &Key, const char *Label, std::uint64_t V) {
  Key += Label;
  Key += '=';
  Key += std::to_string(V);
  Key += ';';
}

void wcetFields(std::string &Key, const BasicActionWcets &W) {
  field(Key, "fr", W.FailedRead);
  field(Key, "sr", W.SuccessfulRead);
  field(Key, "sel", W.Selection);
  field(Key, "disp", W.Dispatch);
  field(Key, "compl", W.Completion);
  field(Key, "idle", W.Idling);
}

/// Renders the text every cross-check compares for the lint pass. The
/// file name is fixed: the check asserts the *findings* are identical,
/// not the caller's display path.
std::string lintRendering(const std::vector<dataflow::Finding> &Fs) {
  return dataflow::renderText("<cross-check>", Fs);
}

} // namespace

std::string timingCacheKey(const caesium::StmtPtr &Program,
                           const StaticCostParams &P,
                           std::uint32_t NumSockets) {
  std::string Key = "timing;";
  wcetFields(Key, P.Wcets);
  field(Key, "assign", P.Instr.Assign);
  field(Key, "branch", P.Instr.Branch);
  field(Key, "enq", P.Instr.Enqueue);
  field(Key, "deq", P.Instr.Dequeue);
  field(Key, "free", P.Instr.Free);
  field(Key, "cb", P.MaxCallbackWcet);
  field(Key, "regbound",
        static_cast<std::uint64_t>(registerBound(NumSockets)));
  field(Key, "steps", P.MaxPathSteps);
  field(Key, "visits", P.MaxVisitsPerNode);
  field(Key, "sockets", NumSockets);
  Key += caesium::printStmt(*Program);
  return Key;
}

std::string lintCacheKey(const caesium::StmtPtr &Program,
                         const dataflow::AnalysisOptions &Opts) {
  std::string Key = "lint;";
  field(Key, "sockets", Opts.NumSockets);
  field(Key, "widen", Opts.Solve.WidenAfter);
  field(Key, "rounds", Opts.Solve.MaxRounds);
  Key += caesium::printStmt(*Program);
  return Key;
}

TimingResult AnalysisCache::timing(const caesium::StmtPtr &Program,
                                   const StaticCostParams &P,
                                   std::uint32_t NumSockets, bool *Hit) {
  std::string Key = timingCacheKey(Program, P, NumSockets);
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = TimingMap.find(Key);
    if (It != TimingMap.end()) {
      ++St.TimingHits;
      if (Hit)
        *Hit = true;
      if (!Opt.CrossCheck)
        return It->second;
    } else {
      if (Hit)
        *Hit = false;
    }
  }
  // Analyze outside the lock: the pass is pure, so a racing lane
  // computing the same key produces the same result and the first
  // insertion wins harmlessly.
  TimingResult R = analyzeTiming(buildCfg(Program), P, NumSockets);
  std::lock_guard<std::mutex> Lock(M);
  auto [It, Inserted] = TimingMap.try_emplace(Key, R);
  if (!Inserted && Opt.CrossCheck) {
    RPROSA_CHECK(It->second.describeTable() == R.describeTable(),
                 "incremental timing cache diverged from re-analysis");
    ++St.CrossChecks;
  }
  if (Inserted)
    ++St.TimingMisses;
  return It->second;
}

std::vector<dataflow::Finding>
AnalysisCache::lint(const caesium::StmtPtr &Program,
                    const dataflow::AnalysisOptions &Opts, bool *Hit) {
  std::string Key = lintCacheKey(Program, Opts);
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = LintMap.find(Key);
    if (It != LintMap.end()) {
      ++St.LintHits;
      if (Hit)
        *Hit = true;
      if (!Opt.CrossCheck)
        return It->second;
    } else {
      if (Hit)
        *Hit = false;
    }
  }
  std::vector<dataflow::Finding> Fs =
      dataflow::runUnifiedAnalyses(buildCfg(Program), Opts);
  std::lock_guard<std::mutex> Lock(M);
  auto [It, Inserted] = LintMap.try_emplace(Key, Fs);
  if (!Inserted && Opt.CrossCheck) {
    RPROSA_CHECK(lintRendering(It->second) == lintRendering(Fs),
                 "incremental lint cache diverged from re-analysis");
    ++St.CrossChecks;
  }
  if (Inserted)
    ++St.LintMisses;
  return It->second;
}

IncrementalStats AnalysisCache::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return St;
}

std::vector<SliceAnalysis>
WorkspaceAnalyzer::analyze(const std::vector<TaskSlice> &Slices) {
  std::vector<SliceAnalysis> Out;
  Out.reserve(Slices.size());
  for (const TaskSlice &S : Slices) {
    SliceAnalysis R;
    R.Name = S.Name;
    std::string ParamTail;
    field(ParamTail, "sockets", S.NumSockets);
    R.Fingerprint = fnv1a64(ParamTail, fnv1a64(S.Source));

    caesium::StmtPtr Program = nullptr;
    auto It = Parsed.find(S.Source);
    if (It != Parsed.end()) {
      Program = It->second;
    } else {
      caesium::ParseDiag PD;
      std::optional<caesium::StmtPtr> P =
          caesium::parseProgram(Arena, S.Source, nullptr, &PD);
      if (!P) {
        R.ParseError = caesium::renderParseError(S.Name, S.Source, PD);
        Out.push_back(std::move(R));
        continue;
      }
      Program = *P;
      Parsed.emplace(S.Source, Program);
    }
    R.ParseOk = true;

    bool TimingHit = false, LintHit = false;
    R.Timing = Cache.timing(Program, Params, S.NumSockets, &TimingHit);
    dataflow::AnalysisOptions Opts;
    Opts.NumSockets = S.NumSockets;
    R.Lint = Cache.lint(Program, Opts, &LintHit);
    R.Reused = TimingHit && LintHit;
    Out.push_back(std::move(R));
  }
  return Out;
}

std::vector<SweepPoint> WorkspaceAnalyzer::sweepPointsFor(
    const std::vector<SliceAnalysis> &Results, const TaskSet &Tasks,
    const RtaConfig &Cfg, const BasicActionWcets &HandWcets) const {
  std::vector<SweepPoint> Points;
  for (const SliceAnalysis &R : Results) {
    if (!R.ParseOk || !R.Timing.allBounded())
      continue;
    TimingInputs In = R.Timing.toRtaInputs(Tasks, HandWcets);
    SweepPoint Pt;
    Pt.Tasks = In.applyTo(Tasks);
    Pt.Cfg = Cfg;
    Pt.Sbf.Wcets = In.Wcets;
    Pt.Sbf.NumSockets = R.Timing.NumSockets;
    Points.push_back(std::move(Pt));
  }
  return Points;
}

} // namespace rprosa::analysis
