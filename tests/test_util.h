//===- tests/test_util.h - Shared fixtures for the test suite -------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builders for the scenarios the tests exercise over and over: small
/// WCET tables, task sets of varying shapes, a one-call "run Rössl and
/// hand me the trace" helper, a stream that reads a few bytes at a
/// time, and seeded single edits of a Caesium program.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TESTS_TEST_UTIL_H
#define RPROSA_TESTS_TEST_UTIL_H

#include "caesium/ast.h"
#include "caesium/print.h"
#include "caesium/rossl_program.h"
#include "rossl/scheduler.h"
#include "rta/sweep.h"
#include "sim/environment.h"
#include "sim/workload.h"
#include "support/rng.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>

namespace rprosa::testutil {

/// Process-lifetime arena for ASTs hand-built inside tests (the trees
/// are tiny, and never resetting keeps every StmtPtr valid for the
/// whole binary). Test files alias it as `TA` for terse factory calls:
/// TA.seq({TA.setReg(0, TA.lit(1))}).
inline caesium::AstArena &testArena() {
  static auto *A = new caesium::AstArena;
  return *A;
}

/// The base seed of a randomized (fuzz-style) test: \p Default unless
/// the environment overrides it via RPROSA_FUZZ_SEED. Every randomized
/// loop derives its per-iteration seeds from this value and names it in
/// failure messages, so a CI failure replays locally with
///   RPROSA_FUZZ_SEED=<seed> ctest -R <test>
inline std::uint64_t fuzzSeed(std::uint64_t Default) {
  const char *Env = std::getenv("RPROSA_FUZZ_SEED");
  if (!Env || !*Env)
    return Default;
  char *End = nullptr;
  std::uint64_t S = std::strtoull(Env, &End, 10);
  return End && *End == '\0' ? S : Default;
}

/// The whole text of the file at \p Path; empty if it cannot be read.
inline std::string readTextFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The printed 2-socket Rössl program with \p Loops counted loops
/// spliced after the dispatch marker, inside the fuel-governed scheduler
/// loop: the loop-ladder shape of the end-to-end benchmark's static
/// workload. Protocol-clean; a longer dispatch segment per loop.
inline std::string loopLadderSource(std::uint32_t Loops) {
  std::string Base = caesium::printStmt(*caesium::buildRosslProgram(2));
  std::size_t At = Base.find("dispatch_start(");
  std::size_t LineStart = Base.rfind('\n', At) + 1;
  std::string Indent = Base.substr(LineStart, At - LineStart);
  std::size_t LineEnd = Base.find('\n', At) + 1;
  std::string Splice;
  for (std::uint32_t I = 0; I < Loops; ++I)
    Splice += Indent + "r5 = 0;\n" + Indent + "while ((r5 < 4)) {\n" +
              Indent + "  r5 = (r5 + 1);\n" + Indent + "}\n";
  return Base.substr(0, LineEnd) + Splice + Base.substr(LineEnd);
}

/// \p Src with every register rK renamed r(K + RegShift) and every
/// buffer bufK renamed buf(K + BufShift): the same program over wider
/// register and buffer files. For printed programs (printStmt), which
/// carry no comments.
inline std::string renumberedSource(const std::string &Src,
                                    std::uint32_t RegShift,
                                    std::uint32_t BufShift) {
  auto IsWord = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  auto IsDigit = [](char C) {
    return std::isdigit(static_cast<unsigned char>(C)) != 0;
  };
  std::string Out;
  for (std::size_t I = 0; I < Src.size();) {
    const bool Start = I == 0 || !IsWord(Src[I - 1]);
    const std::size_t Len = !Start                            ? 0
                            : Src.compare(I, 3, "buf") == 0 ? 3
                            : Src[I] == 'r'                 ? 1
                                                            : 0;
    std::size_t End = I + Len;
    while (Len && End < Src.size() && IsDigit(Src[End]))
      ++End;
    if (End == I + Len || (End < Src.size() && IsWord(Src[End]))) {
      Out += Src[I++];
      continue;
    }
    const std::uint32_t Shift = Len == 1 ? RegShift : BufShift;
    Out += Src.substr(I, Len) +
           std::to_string(std::stoul(Src.substr(I + Len, End - I - Len)) +
                          Shift);
    I = End;
  }
  return Out;
}

/// The one edit an Editor applies.
enum class EditKind : std::uint8_t { Delete, Duplicate, Swap, Perturb };

/// Rebuilds a program with one edit: the Target-th statement that sits
/// in a block (pre-order) deleted, duplicated, or swapped with its next
/// sibling (its previous one when it is last), or the Target-th literal
/// moved by Delta. Every rebuild also counts the program's block
/// statements and literals, so a first pass with no target in range
/// sizes the choice. Rebuilt nodes live in testArena(). Seeded single
/// edits of the Rössl program reach protocol violations, defects and
/// lint findings at many depths.
class Editor {
public:
  Editor(EditKind K, std::size_t Target, caesium::Value Delta)
      : K(K), Target(Target), Delta(Delta) {}

  std::size_t Slots = 0;
  std::size_t Lits = 0;

  caesium::StmtPtr stmt(caesium::StmtPtr S) {
    switch (S->K) {
    case caesium::Stmt::Kind::Seq: {
      std::vector<caesium::StmtPtr> Out;
      const caesium::StmtList &C = S->Children;
      for (std::size_t I = 0; I < C.size(); ++I) {
        const bool Hit = Slots++ == Target && K != EditKind::Perturb;
        if (Hit && K == EditKind::Delete)
          continue;
        caesium::StmtPtr Here = stmt(C[I]);
        if (Hit && K == EditKind::Duplicate) {
          Out.push_back(Here);
        } else if (Hit && K == EditKind::Swap && I + 1 < C.size()) {
          Out.push_back(stmt(C[++I]));
        } else if (Hit && K == EditKind::Swap && !Out.empty()) {
          std::swap(Here, Out.back());
        }
        Out.push_back(Here);
      }
      return TA.seq(Out);
    }
    case caesium::Stmt::Kind::SetReg:
      return TA.setReg(S->Dst, expr(S->E));
    case caesium::Stmt::Kind::If: {
      caesium::ExprPtr Cond = expr(S->E);
      caesium::StmtPtr Then = stmt(S->Children[0]);
      caesium::StmtPtr Else =
          S->Children.size() > 1 ? stmt(S->Children[1]) : nullptr;
      return TA.ifThen(Cond, Then, Else);
    }
    case caesium::Stmt::Kind::While: {
      caesium::ExprPtr Cond = expr(S->E);
      return TA.whileLoop(Cond, stmt(S->Children[0]));
    }
    default:
      return S; // The other statements carry no expression.
    }
  }

private:
  caesium::ExprPtr expr(caesium::ExprPtr E) {
    if (E->K == caesium::Expr::Kind::Lit)
      return Lits++ == Target && K == EditKind::Perturb
                 ? TA.lit(E->Lit + Delta)
                 : E;
    caesium::ExprPtr L = E->L ? expr(E->L) : nullptr;
    caesium::ExprPtr R = E->R ? expr(E->R) : nullptr;
    switch (E->K) {
    case caesium::Expr::Kind::Add:
      return TA.add(L, R);
    case caesium::Expr::Kind::Sub:
      return TA.sub(L, R);
    case caesium::Expr::Kind::Div:
      return TA.divE(L, R);
    case caesium::Expr::Kind::Mod:
      return TA.modE(L, R);
    case caesium::Expr::Kind::Less:
      return TA.less(L, R);
    case caesium::Expr::Kind::Eq:
      return TA.eq(L, R);
    case caesium::Expr::Kind::Not:
      return TA.notE(L);
    default:
      return E; // Reg and Fuel have no operands.
    }
  }

  caesium::AstArena &TA = testArena();
  EditKind K;
  std::size_t Target;
  caesium::Value Delta;
};

/// Small, round WCETs that keep hand computations easy: FR=4, SR=10,
/// Sel=3, Disp=2, Compl=5, Idling=8.
inline BasicActionWcets tinyWcets() {
  BasicActionWcets W;
  W.FailedRead = 4;
  W.SuccessfulRead = 10;
  W.Selection = 3;
  W.Dispatch = 2;
  W.Completion = 5;
  W.Idling = 8;
  return W;
}

/// A periodic task: arrivals at most every \p Period ticks.
inline TaskId addPeriodicTask(TaskSet &TS, std::string Name, Duration Wcet,
                              Priority Prio, Duration Period) {
  return TS.addTask(std::move(Name), Wcet, Prio,
                    std::make_shared<PeriodicCurve>(Period));
}

/// A bursty task: up to \p Burst back-to-back, then one per \p Rate.
inline TaskId addBurstyTask(TaskSet &TS, std::string Name, Duration Wcet,
                            Priority Prio, std::uint64_t Burst,
                            Duration Rate) {
  return TS.addTask(std::move(Name), Wcet, Prio,
                    std::make_shared<LeakyBucketCurve>(Burst, Rate));
}

/// The two-task set of the Fig. 3 walkthrough: tau1 (low priority) and
/// tau2 (high priority), both periodic.
inline TaskSet figure3Tasks() {
  TaskSet TS;
  addPeriodicTask(TS, "tau1", /*Wcet=*/50, /*Prio=*/1, /*Period=*/1000);
  addPeriodicTask(TS, "tau2", /*Wcet=*/30, /*Prio=*/2, /*Period=*/1000);
  return TS;
}

/// A richer three-task mix for property sweeps.
inline TaskSet mixedTasks() {
  TaskSet TS;
  addPeriodicTask(TS, "ctrl", /*Wcet=*/40, /*Prio=*/3, /*Period=*/500);
  addBurstyTask(TS, "sensor", /*Wcet=*/25, /*Prio=*/2, /*Burst=*/3,
                /*Rate=*/400);
  addPeriodicTask(TS, "log", /*Wcet=*/80, /*Prio=*/1, /*Period=*/900);
  return TS;
}

/// Runs Rössl once and returns the timed trace.
inline TimedTrace runRossl(const ClientConfig &Client,
                           const ArrivalSequence &Arr, Time Horizon,
                           CostModelKind Cost = CostModelKind::AlwaysWcet,
                           std::uint64_t Seed = 1) {
  Environment Env(Arr);
  CostModel Costs(Client.Wcets, Cost, Seed);
  FdScheduler Sched(Client, Env, Costs);
  RunLimits Limits;
  Limits.Horizon = Horizon;
  return Sched.run(Limits);
}

/// A ClientConfig around a task set with the tiny WCETs.
inline ClientConfig makeClient(TaskSet TS, std::uint32_t NumSockets,
                               BasicActionWcets W = tinyWcets()) {
  ClientConfig C;
  C.Tasks = std::move(TS);
  C.NumSockets = NumSockets;
  C.Wcets = W;
  return C;
}

/// A job literal for handcrafted traces.
inline Job mkJob(JobId Id, TaskId Task, MsgId Msg = 0, SocketId Sock = 0) {
  Job J;
  J.Id = Id;
  J.Task = Task;
  J.Msg = Msg == 0 ? Id : Msg;
  J.Socket = Sock;
  return J;
}

/// Builds timed traces for the checker tests: each appended marker gets
/// the current cursor as timestamp, then the cursor advances by the
/// given segment length.
class TraceBuilder {
public:
  TraceBuilder &at(MarkerEvent E, Duration SegmentLen) {
    TT.Tr.push_back(std::move(E));
    TT.Ts.push_back(Cursor);
    Cursor += SegmentLen;
    return *this;
  }

  /// A full failed read (M_ReadS then M_ReadE ⊥ at the end of the poll).
  TraceBuilder &failedRead(SocketId Sock, Duration Len) {
    at(MarkerEvent::readS(), Len);
    return at(MarkerEvent::readE(Sock, std::nullopt), 0);
  }

  /// A full successful read of \p J.
  TraceBuilder &successRead(SocketId Sock, Job J, Duration Len) {
    at(MarkerEvent::readS(), Len);
    J.Socket = Sock;
    return at(MarkerEvent::readE(Sock, J), 0);
  }

  TimedTrace finish() {
    TT.EndTime = Cursor;
    return TT;
  }

private:
  TimedTrace TT;
  Time Cursor = 0;
};

/// A read-only stream buffer over a text that hands out 1-7 bytes per
/// underflow, the count drawn from \p Seed: a reader on top of it
/// meets a short read at every offset.
class ShortReadBuf final : public std::streambuf {
public:
  ShortReadBuf(std::string Text, std::uint64_t Seed)
      : Text(std::move(Text)), Rng(Seed) {}
  ShortReadBuf(const ShortReadBuf &) = delete;
  ShortReadBuf &operator=(const ShortReadBuf &) = delete;

protected:
  int_type underflow() override {
    if (gptr() < egptr())
      return traits_type::to_int_type(*gptr());
    if (Pos == Text.size())
      return traits_type::eof();
    std::size_t N = std::min<std::size_t>(Text.size() - Pos,
                                          Rng.nextInRange(1, 7));
    char *B = Text.data() + Pos;
    setg(B, B, B + N);
    Pos += N;
    return traits_type::to_int_type(*B);
  }

private:
  std::string Text;
  SplitMix64 Rng;
  std::size_t Pos = 0;
};

/// A randomized sweep grid in the shape real sweeps have: shared curve
/// objects, WCETs and socket counts perturbed per point, mixed
/// policies. Mostly monotone runs, in which a point's demand dominates
/// its predecessor's, broken by random discontinuities.
inline std::vector<SweepPoint> seededRandomGrid(std::uint64_t Seed,
                                                std::size_t N) {
  std::mt19937_64 Rng(Seed);
  TaskSet Base = mixedTasks();
  TaskSet EdfBase;
  for (const Task &T : Base.tasks())
    EdfBase.addTask(T.Name, T.Wcet, T.Prio, T.Curve,
                    /*Deadline=*/2000 + 100 * T.Id);

  std::vector<SweepPoint> Points;
  std::uniform_int_distribution<int> Jump(0, 9);
  std::uniform_int_distribution<std::uint32_t> Socks(1, 4);
  std::uniform_int_distribution<Duration> Bump(0, 5);
  Duration Drift = 0;
  for (std::size_t I = 0; I < N; ++I) {
    if (Jump(Rng) == 0)
      Drift = 0; // Discontinuity: the next point is not dominated.
    SweepPoint P;
    bool Edf = Jump(Rng) < 2;
    const TaskSet &From = Edf ? EdfBase : Base;
    for (const Task &T : From.tasks())
      P.Tasks.addTask(T.Name, T.Wcet + Drift, T.Prio, T.Curve, T.Deadline);
    P.Cfg.FixedPointCap = 1 * TickSec;
    P.Sbf.Wcets = tinyWcets();
    P.Sbf.NumSockets = Socks(Rng);
    P.Policy = Edf ? SchedPolicy::Edf
                   : (Jump(Rng) < 5 ? SchedPolicy::Npfp : SchedPolicy::Fifo);
    Points.push_back(std::move(P));
    Drift += Bump(Rng);
  }
  return Points;
}

} // namespace rprosa::testutil

#endif // RPROSA_TESTS_TEST_UTIL_H
