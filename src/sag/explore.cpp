//===- sag/explore.cpp ----------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Depth-synchronous BFS over dispatch decisions. Parallelism never
// changes a byte of the result: the frontier is expanded into per-slot
// successor buffers (index-addressed, no shared mutable state), and
// the merge pass that builds the next frontier is serial and runs in
// slot order. Deadline-miss candidates are collected in the same order
// and replayed at depth boundaries, so the first confirmed miss — and
// with it the verdict, witness and JSON — is identical for any thread
// count.
//
//===----------------------------------------------------------------------===//

#include "sag/explore.h"

#include "sag/backtrack.h"
#include "support/parallel.h"

#include <string>
#include <unordered_map>

using namespace rprosa;

namespace {

/// A dispatch edge that admits a deadline miss: the interval argument
/// says a job arriving at Rmin can finish past Rmin + Deadline. Kept
/// by predecessor arena index so merging cannot invalidate it.
struct Candidate {
  std::uint32_t Pred = 0;
  std::uint32_t Job = 0;
  Duration ResponseBound = 0;
};

/// Per-slot expansion output.
struct SlotOut {
  std::vector<SagState> Succ;
  std::vector<Candidate> Cands;
};

/// Hash for the dispatched-set key of the per-depth merge map.
struct MaskHash {
  std::size_t operator()(const SagMask &M) const {
    std::uint64_t H = 0x9e3779b97f4a7c15ull;
    for (std::uint64_t W : M) {
      H ^= W + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
    }
    return static_cast<std::size_t>(H);
  }
};

/// Expands one state: every eligible live job becomes a successor; the
/// eligibility window is the classic SAG rule instantiated with the
/// Rössl machine's latency envelope (DESIGN.md §13.2).
void expand(const SagModel &M, const SagState &S, std::uint32_t SI,
            SlotOut &Out) {
  const std::vector<SagJob> &Jobs = M.jobs();
  std::size_t N = Jobs.size();
  std::size_t Live = N - S.Depth;
  if (Live == 0)
    return;

  Duration MinPhase = satMul(M.numSockets(), M.failedRead());

  // Upper bound on when a polling phase in flight at instant T can
  // end: only jobs that can still arrive before the phase is over
  // occupy its success rounds, so iterate the job-count bound downward
  // over the arrival window it implies (each step stays sound: if P
  // bounds the remainder for every covered run, a job with
  // Rmin > T + P + Tr cannot be read in it). Starts from the coarse
  // all-live bound, so it never exceeds the static phaseMax.
  auto PhaseFrom = [&](Time T) {
    Duration P = M.phaseMax(Live);
    for (int It = 0; It < 3; ++It) {
      std::size_t U = 0;
      for (std::uint32_t K = 0; K < N; ++K)
        if (!sagMaskTest(S.Dispatched, K) &&
            Jobs[K].Rmin <= satAdd(T, satAdd(P, M.readTotal())))
          ++U;
      Duration P2 = M.phaseMax(U);
      if (P2 >= P)
        break;
      P = P2;
    }
    return P;
  };

  // A selection completing at instant t certainly sees every live job
  // with Rmax + NumSockets*Fr + Sel <= t: the preceding phase's final
  // all-failed round read that job's socket after its latest arrival,
  // and a failed read proves the socket had been drained into the
  // queue. (Much tighter than Qmax, which must also budget the
  // select/idle loop of states where no selection happens at all.)
  Duration SeeLag = satAdd(MinPhase, M.selection());

  // The latest instant by which the machine certainly has work: its
  // availability plus the earliest certain queue entry among live jobs.
  Time MinQmax = TimeInfinity;
  for (std::uint32_t K = 0; K < N; ++K)
    if (!sagMaskTest(S.Dispatched, K) && Jobs[K].Qmax < MinQmax)
      MinQmax = Jobs[K].Qmax;

  for (std::uint32_t J = 0; J < N; ++J) {
    if (sagMaskTest(S.Dispatched, J))
      continue;
    const SagJob &Job = Jobs[J];

    // Earliest selection completing with J queued: availability and
    // queue entry, then the final all-failed round plus the selection.
    Time EstSel = satAdd(S.EA > Job.Qmin ? S.EA : Job.Qmin,
                         satAdd(MinPhase, M.selection()));

    // Latest selection with work certainly pending: the in-flight
    // phase drains within PhaseFrom(TBoth), then the selection
    // dispatches.
    Time TBoth = S.LA > MinQmax ? S.LA : MinQmax;
    Time LstSel = satAdd(TBoth, satAdd(PhaseFrom(TBoth), M.selection()));

    // Pruning: a selection completing once a certainly-preferred job is
    // certainly visible can no longer pick J. (Inclusive cap: at
    // exactly Rmax + SeeLag the boundary read may still miss the
    // arrival, so the branch is kept.)
    Time Thigh = TimeInfinity;
    for (std::uint32_t K = 0; K < N; ++K) {
      if (K == J || sagMaskTest(S.Dispatched, K) ||
          !M.certainlyPrefers(K, J))
        continue;
      Time Vis = satAdd(Jobs[K].Rmax, SeeLag);
      if (Vis < Thigh)
        Thigh = Vis;
    }
    if (Thigh < LstSel)
      LstSel = Thigh;

    if (EstSel > LstSel)
      continue; // Not eligible from this state.

    Duration DispCost = satAdd(M.dispatch(), Job.Cost);
    SagState Next;
    Next.Dispatched = S.Dispatched;
    sagMaskSet(Next.Dispatched, J);
    Next.EA = satAdd(satAdd(EstSel, DispCost), M.completion());
    Next.LA = satAdd(satAdd(LstSel, DispCost), M.completion());
    Next.Depth = S.Depth + 1;
    Out.Succ.push_back(Next);

    if (Job.Deadline == 0)
      continue;
    // Deadline-miss candidate test, conditioned on the *early* arrival
    // (a = Rmin): the response bound LF(a) - a is non-increasing in a,
    // so checking the early endpoint covers the whole window. With J's
    // own queue entry pinned at Qmin the machine certainly has work by
    // max(LA, min(Qmin_J, min over others of Qmax)).
    Time MinQmaxOthers = TimeInfinity;
    for (std::uint32_t K = 0; K < N; ++K)
      if (K != J && !sagMaskTest(S.Dispatched, K) &&
          Jobs[K].Qmax < MinQmaxOthers)
        MinQmaxOthers = Jobs[K].Qmax;
    Time CertWork = Job.Qmin < MinQmaxOthers ? Job.Qmin : MinQmaxOthers;
    Time TBothEarly = S.LA > CertWork ? S.LA : CertWork;
    Time LstSelEarly =
        satAdd(TBothEarly, satAdd(PhaseFrom(TBothEarly), M.selection()));
    if (Thigh < LstSelEarly)
      LstSelEarly = Thigh;
    if (LstSelEarly < EstSel)
      LstSelEarly = EstSel; // The finish is at least the earliest one.
    Time LfEarly = satAdd(LstSelEarly, DispCost);
    Duration Resp = LfEarly > Job.Rmin ? LfEarly - Job.Rmin : 0;
    if (Resp > Job.Deadline)
      Out.Cands.push_back(Candidate{SI, J, Resp});
  }
}

} // namespace

std::string rprosa::toString(SagVerdict V) {
  switch (V) {
  case SagVerdict::Schedulable:
    return "Schedulable";
  case SagVerdict::Unschedulable:
    return "Unschedulable";
  case SagVerdict::Unknown:
    return "Unknown";
  }
  return "Unknown";
}

SagResult rprosa::analyzeExact(const TaskSet &Tasks,
                               const BasicActionWcets &W,
                               std::uint32_t NumSockets, SchedPolicy Policy,
                               const SagConfig &Cfg) {
  SagResult R;
  SagModel M = SagModel::build(Tasks, W, NumSockets, Policy, Cfg);
  if (!M.status().passed()) {
    R.Verdict = SagVerdict::Unknown;
    R.Note = "model construction failed: " + M.status().describe();
    return R;
  }
  std::size_t N = M.jobs().size();
  R.Stats.Jobs = N;
  if (N == 0) {
    R.Verdict = SagVerdict::Schedulable;
    R.Note = "empty job set before the horizon";
    R.Stats.States = 1;
    return R;
  }

  ThreadPool Pool(static_cast<unsigned>(Cfg.Threads));
  Time ReplayHorizon = sagReplayHorizon(M);

  std::vector<SagState> Arena(1); // Root: nothing dispatched, EA=LA=0.
  std::vector<std::uint32_t> Frontier{0};
  R.Stats.States = 1;

  // Victims already realized+replayed (dedup across edges; the
  // realization depends only on the victim and variant, not the path).
  std::vector<bool> Attempted(N, false);
  std::size_t Unconfirmed = 0;

  while (!Frontier.empty()) {
    // --- Parallel expansion into per-slot buffers. ---
    std::vector<SlotOut> Out(Frontier.size());
    Pool.parallelForChunked(Frontier.size(), 0, [&](std::size_t I) {
      expand(M, Arena[Frontier[I]], Frontier[I], Out[I]);
    });

    // --- Serial, slot-ordered merge into the arena. ---
    std::vector<std::uint32_t> Next;
    std::unordered_map<SagMask, std::vector<std::uint32_t>, MaskHash> ByMask;
    for (const SlotOut &O : Out) {
      for (const SagState &S : O.Succ) {
        ++R.Stats.Edges;
        auto &Bucket = ByMask[S.Dispatched];
        bool Merged = false;
        for (std::uint32_t Idx : Bucket) {
          if (sagCanMerge(Arena[Idx], S)) {
            sagMergeInto(Arena[Idx], S);
            ++R.Stats.Merges;
            Merged = true;
            break;
          }
        }
        if (!Merged) {
          auto Idx = static_cast<std::uint32_t>(Arena.size());
          Arena.push_back(S);
          Bucket.push_back(Idx);
          Next.push_back(Idx);
        }
      }
    }
    R.Stats.States = Arena.size();
    if (Next.size() > R.Stats.MaxFrontier)
      R.Stats.MaxFrontier = Next.size();
    if (!Next.empty())
      R.Stats.Depth = Arena[Next.front()].Depth;

    // --- Replay gate over this depth's candidates, in slot order. ---
    for (const SlotOut &O : Out) {
      for (const Candidate &C : O.Cands) {
        ++R.Stats.Candidates;
        if (Attempted[C.Job])
          continue;
        Attempted[C.Job] = true;
        bool Confirmed = false;
        for (SagRealizeVariant V :
             {SagRealizeVariant::AllEarly, SagRealizeVariant::AllLate,
              SagRealizeVariant::VictimLate}) {
          // All variants coincide without release jitter.
          if (Cfg.ReleaseJitter == 0 && V != SagRealizeVariant::AllEarly)
            break;
          if (R.Stats.Replays >= Cfg.MaxReplays)
            break;
          ++R.Stats.Replays;
          SagRealization Real = sagRealizeArrivals(M, C.Job, V);
          SagReplayOutcome Rep =
              sagReplay(M, Real.Arrivals, ReplayHorizon);
          if (Rep.MissObserved) {
            ++R.Stats.ReplaysConfirmed;
            SagWitness Wit;
            Wit.Task = Rep.Miss.Task;
            Wit.Msg = Rep.Miss.Msg;
            Wit.ArrivalAt = Rep.Miss.ArrivalAt;
            Wit.CompletedAt = Rep.Miss.CompletedAt;
            Wit.Response = Rep.Miss.Response;
            Wit.Deadline = Rep.Miss.Deadline;
            Wit.Arrivals = Real.Arrivals;
            Wit.ChecksPassed = Rep.ChecksPassed;
            R.Witness = std::move(Wit);
            R.Verdict = SagVerdict::Unschedulable;
            R.Note = "deadline miss confirmed by in-process replay";
            Confirmed = true;
            break;
          }
        }
        if (Confirmed)
          return R;
        ++Unconfirmed;
      }
    }

    if (Arena.size() >= Cfg.MaxStates) {
      R.Stats.Capped = true;
      break;
    }
    Frontier = std::move(Next);
  }

  if (R.Stats.Capped) {
    R.Verdict = SagVerdict::Unknown;
    R.Note = "state cap " + std::to_string(Cfg.MaxStates) +
             " reached before exhausting the graph";
  } else if (Unconfirmed > 0) {
    R.Verdict = SagVerdict::Unknown;
    R.Note = std::to_string(Unconfirmed) +
             " deadline-miss candidate(s); no replay confirmed a miss";
  } else {
    R.Verdict = SagVerdict::Schedulable;
    R.Note = "exploration exhausted without a deadline-miss candidate";
  }
  return R;
}

std::string rprosa::sagResultJson(const SagResult &R) {
  auto B = [](bool V) { return V ? std::string("true") : std::string("false"); };
  std::string S = "{";
  S += "\"verdict\": \"" + toString(R.Verdict) + "\"";
  S += ", \"jobs\": " + std::to_string(R.Stats.Jobs);
  S += ", \"states\": " + std::to_string(R.Stats.States);
  S += ", \"edges\": " + std::to_string(R.Stats.Edges);
  S += ", \"merges\": " + std::to_string(R.Stats.Merges);
  S += ", \"max_frontier\": " + std::to_string(R.Stats.MaxFrontier);
  S += ", \"depth\": " + std::to_string(R.Stats.Depth);
  S += ", \"candidates\": " + std::to_string(R.Stats.Candidates);
  S += ", \"replays\": " + std::to_string(R.Stats.Replays);
  S += ", \"replays_confirmed\": " + std::to_string(R.Stats.ReplaysConfirmed);
  S += ", \"capped\": " + B(R.Stats.Capped);
  if (R.Witness) {
    const SagWitness &W = *R.Witness;
    S += ", \"witness\": {\"task\": " + std::to_string(W.Task);
    S += ", \"msg\": " + std::to_string(W.Msg);
    S += ", \"arrival\": " + std::to_string(W.ArrivalAt);
    S += ", \"completed\": " + std::to_string(W.CompletedAt);
    S += ", \"response\": " + std::to_string(W.Response);
    S += ", \"deadline\": " + std::to_string(W.Deadline);
    S += ", \"arrivals\": " + std::to_string(W.Arrivals.size());
    S += ", \"checks_passed\": " + B(W.ChecksPassed) + "}";
  } else {
    S += ", \"witness\": null";
  }
  S += ", \"note\": \"" + R.Note + "\"";
  S += "}";
  return S;
}
