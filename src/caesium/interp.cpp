//===- caesium/interp.cpp -------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "caesium/interp.h"

#include "caesium/print.h"

#include <cassert>

using namespace rprosa;
using namespace rprosa::caesium;

std::string RuntimeTrap::checkId() const {
  switch (K) {
  case Kind::SignedOverflow:
    return "value-range.signed-overflow";
  case Kind::DivByZero:
    return "value-range.div-by-zero";
  case Kind::SocketRange:
    return "value-range.socket-range";
  }
  return "value-range.?";
}

CaesiumMachine::CaesiumMachine(const ClientConfig &Client, Environment &Env,
                               CostModel &Costs, std::size_t NumBuffers,
                               std::size_t NumRegs)
    : Client(Client), Env(Env), Costs(Costs), Recorder(Clock),
      Heap(NumBuffers), Regs(NumRegs, 0) {
  assert(Client.Policy == SchedPolicy::Npfp &&
         "the embedded scheduler-state builtin implements NPFP (the "
         "paper's policy)");
}

void CaesiumMachine::setTrap(RuntimeTrap::Kind K,
                             std::string Message) const {
  if (!TrapState)
    TrapState = RuntimeTrap{K, std::move(Message)};
}

Value CaesiumMachine::eval(const Expr &E) const {
  switch (E.K) {
  case Expr::Kind::Lit:
    return E.Lit;
  case Expr::Kind::Reg:
    assert(E.Reg < Regs.size() && "register out of range");
    return Regs[E.Reg];
  case Expr::Kind::Add: {
    Value L = eval(*E.L), R = eval(*E.R), Out = 0;
    if (__builtin_add_overflow(L, R, &Out)) {
      setTrap(RuntimeTrap::Kind::SignedOverflow,
              "signed overflow in " + printExpr(E) + " (" +
                  std::to_string(L) + " + " + std::to_string(R) + ")");
      return 0;
    }
    return Out;
  }
  case Expr::Kind::Sub: {
    Value L = eval(*E.L), R = eval(*E.R), Out = 0;
    if (__builtin_sub_overflow(L, R, &Out)) {
      setTrap(RuntimeTrap::Kind::SignedOverflow,
              "signed overflow in " + printExpr(E) + " (" +
                  std::to_string(L) + " - " + std::to_string(R) + ")");
      return 0;
    }
    return Out;
  }
  case Expr::Kind::Div:
  case Expr::Kind::Mod: {
    Value L = eval(*E.L), R = eval(*E.R);
    if (R == 0) {
      setTrap(RuntimeTrap::Kind::DivByZero,
              "division by zero in " + printExpr(E));
      return 0;
    }
    if (L == INT64_MIN && R == -1) {
      setTrap(RuntimeTrap::Kind::SignedOverflow,
              "signed overflow in " + printExpr(E) +
                  " (INT64_MIN / -1)");
      return 0;
    }
    return E.K == Expr::Kind::Div ? L / R : L % R;
  }
  case Expr::Kind::Less:
    return eval(*E.L) < eval(*E.R) ? 1 : 0;
  case Expr::Kind::Eq:
    return eval(*E.L) == eval(*E.R) ? 1 : 0;
  case Expr::Kind::Not:
    return eval(*E.L) == 0 ? 1 : 0;
  case Expr::Kind::Fuel:
    return (Clock.now() < Limits.Horizon &&
            (Limits.MaxMarkers == 0 ||
             Recorder.size() < Limits.MaxMarkers))
               ? 1
               : 0;
  }
  return 0;
}

void CaesiumMachine::stepRead(const Stmt &S) {
  assert(S.Buf < Heap.size() && "buffer out of range");
  // The C original would pass the raw register to the read system call
  // (an EBADF at best, out-of-bounds wait-set access at worst); here an
  // out-of-range socket is a defined trap, before any marker is
  // emitted.
  Value SockV = Regs[S.Reg];
  if (SockV < 0 ||
      static_cast<std::uint64_t>(SockV) >= Env.numSockets()) {
    setTrap(RuntimeTrap::Kind::SocketRange,
            "read of socket " + std::to_string(SockV) +
                " outside [0, " + std::to_string(Env.numSockets()) +
                ")");
    return;
  }
  SocketId Sock = static_cast<SocketId>(SockV);

  // M_ReadS marks the issue of the system call.
  Recorder.record(MarkerEvent::readS());

  Duration PollLen = Costs.failedRead();
  Time PollDone = satAdd(Clock.now(), PollLen);
  std::optional<Message> Msg = Env.read(Sock, PollDone);
  if (!Msg) {
    // READ-STEP-FAILURE: result -1, trace event M_ReadE sock ⊥.
    Clock.advance(PollLen);
    Recorder.record(MarkerEvent::readE(Sock, std::nullopt));
    Regs[S.Dst] = -1;
    return;
  }

  // READ-STEP-SUCCESS: j = (data, σ.idx); σ'.idx = σ.idx + 1;
  // σ'.id_map[data] += [j]; heap[l] ← data; emits M_ReadE sock j.
  Clock.advance(PollLen);
  Clock.advance(Costs.readCompletionExtra(PollLen));
  Job J;
  J.Id = Idx++;
  J.Msg = Msg->Id;
  J.Task = Msg->Task;
  J.Socket = Sock;
  J.ReadAt = Clock.now();
  IdMap[dataOf(*Msg)].push_back(J.Id);
  JobTable[J.Id] = J;
  Heap[S.Buf].Msg = *Msg;
  Recorder.record(MarkerEvent::readE(Sock, J));
  Regs[S.Dst] = static_cast<Value>(Msg->PayloadLen);
}

void CaesiumMachine::stepTrace(const Stmt &S) {
  switch (S.Fn) {
  case TraceFn::TrSelection:
    Recorder.record(MarkerEvent::selection());
    Clock.advance(Costs.selection());
    break;

  case TraceFn::TrIdling:
    // TRACE-STEP-IDLING: emit M_Idling; state unchanged.
    Recorder.record(MarkerEvent::idling());
    Clock.advance(Costs.idling());
    break;

  case TraceFn::TrDisp: {
    // TRACE-STEP-DISPATCH: read the data from the heap, resolve the
    // first job mapped to it (id_map[data] = j :: js), emit
    // M_Dispatch j. The concrete pick is sound because executions with
    // equal data are indistinguishable (footnote 5).
    assert(S.Buf < Heap.size() && Heap[S.Buf].Msg &&
           "dispatch of an empty buffer");
    MsgData Data = dataOf(*Heap[S.Buf].Msg);
    auto It = IdMap.find(Data);
    assert(It != IdMap.end() && !It->second.empty() &&
           "dispatched data has no read job (trace_state_inv violated)");
    JobId Id = It->second.front();
    It->second.pop_front();
    if (It->second.empty())
      IdMap.erase(It);
    CurrentJob = JobTable[Id];
    Recorder.record(MarkerEvent::dispatch(*CurrentJob));
    Clock.advance(Costs.dispatch());
    break;
  }

  case TraceFn::TrExec: {
    assert(CurrentJob && "execution marker without a dispatched job");
    Recorder.record(MarkerEvent::execution(*CurrentJob));
    const Task &T = Client.Tasks.task(CurrentJob->Task);
    if (!Client.Callbacks.empty() && Client.Callbacks[CurrentJob->Task])
      Client.Callbacks[CurrentJob->Task](*CurrentJob);
    Clock.advance(Costs.exec(T));
    break;
  }

  case TraceFn::TrCompl:
    assert(CurrentJob && "completion marker without a dispatched job");
    Recorder.record(MarkerEvent::completion(*CurrentJob));
    Clock.advance(Costs.completion());
    CurrentJob.reset();
    break;
  }
}

void CaesiumMachine::exec(const Stmt &S) {
  if (TrapState)
    return; // A trapped machine takes no further steps.
  switch (S.K) {
  case Stmt::Kind::Seq:
    for (const StmtPtr &C : S.Children) {
      exec(*C);
      if (TrapState)
        return;
    }
    break;
  case Stmt::Kind::SetReg: {
    assert(S.Dst < Regs.size() && "register out of range");
    Clock.advance(Costs.instr().Assign);
    Value V = eval(*S.E);
    if (TrapState)
      return;
    Regs[S.Dst] = V;
    break;
  }
  case Stmt::Kind::If: {
    Clock.advance(Costs.instr().Branch);
    Value C = eval(*S.E);
    if (TrapState)
      return;
    if (C != 0)
      exec(*S.Children[0]);
    else if (S.Children.size() > 1)
      exec(*S.Children[1]);
    break;
  }
  case Stmt::Kind::While:
    // One Branch charge per condition evaluation, including the final
    // false one — matching the CFG, where the loop-head Branch node is
    // traversed trips+1 times.
    for (;;) {
      Clock.advance(Costs.instr().Branch);
      Value C = eval(*S.E);
      if (TrapState || C == 0)
        break;
      exec(*S.Children[0]);
      if (TrapState)
        return;
    }
    break;
  case Stmt::Kind::ReadE:
    stepRead(S);
    break;
  case Stmt::Kind::TraceE:
    stepTrace(S);
    break;
  case Stmt::Kind::Enqueue: {
    Clock.advance(Costs.instr().Enqueue);
    assert(S.Buf < Heap.size() && Heap[S.Buf].Msg &&
           "enqueue of an empty buffer");
    const Message &M = *Heap[S.Buf].Msg;
    assert(M.Task < Client.Tasks.size() && "unknown task");
    Pending.push(priorityKey(Client.Tasks.task(M.Task).Prio), M);
    break;
  }
  case Stmt::Kind::Dequeue: {
    Clock.advance(Costs.instr().Dequeue);
    if (Pending.empty()) {
      Regs[S.Dst] = 0;
      break;
    }
    Heap[S.Buf].Msg = Pending.front();
    Pending.pop();
    Regs[S.Dst] = 1;
    break;
  }
  case Stmt::Kind::FreeBuf:
    Clock.advance(Costs.instr().Free);
    assert(S.Buf < Heap.size() && "buffer out of range");
    Heap[S.Buf].Msg.reset();
    break;
  }
}

TimedTrace CaesiumMachine::run(const StmtPtr &Program,
                               const RunLimits &RunLimits_) {
  Limits = RunLimits_;
  TrapState.reset();
  exec(*Program);
  return Recorder.take();
}
