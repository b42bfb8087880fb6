//===- trace/marker_specs.cpp ---------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/marker_specs.h"

using namespace rprosa;

MarkerSpecChecker::MarkerSpecChecker(const TaskSet &Tasks,
                                     SchedPolicy Policy)
    : Tasks(Tasks), Policy(Policy) {}

std::vector<Job> MarkerSpecChecker::currentlyPending() const {
  std::vector<Job> Out;
  for (const auto &[Id, J] : Pending)
    Out.push_back(J);
  return Out;
}

void MarkerSpecChecker::fail(std::string Why) {
  Result.addFailure("call " + std::to_string(Pos) + ": " + std::move(Why));
}

void MarkerSpecChecker::step(const MarkerEvent &E) {
  auto LastIs = [&](MarkerKind K) { return Last && Last->Kind == K; };

  switch (E.Kind) {
  case MarkerKind::ReadS:
    // {last tr ∈ {ε, M_ReadE, M_Idling, M_Completion}} read_start()
    // {current_trace (tr ++ [M_ReadS])}
    Result.noteCheck();
    if (Last && !LastIs(MarkerKind::ReadE) &&
        !LastIs(MarkerKind::Idling) && !LastIs(MarkerKind::Completion))
      fail("read_start: a read may only follow a read result, an idle "
           "cycle, a completion, or start the trace");
    break;

  case MarkerKind::ReadE:
    // The pseudo marker of the read result (Fig. 6). Success extends
    // currently_pending with a *fresh* job.
    Result.noteCheck(2);
    if (!LastIs(MarkerKind::ReadS))
      fail("read_end: no read system call in flight");
    if (E.J) {
      if (!EverRead.insert(E.J->Id))
        fail("read_end: job id j" + std::to_string(E.J->Id) +
             " is not fresh (READ-STEP-SUCCESS uniqueness)");
      if (E.J->Task >= Tasks.size())
        fail("read_end: job of unknown task");
      Pending.emplace(E.J->Id, *E.J);
    }
    break;

  case MarkerKind::Selection:
    // {last tr = M_ReadE ⊥} selection_start() {tr ++ [M_Selection]}
    Result.noteCheck();
    if (!Last || !Last->isFailedRead())
      fail("selection_start: the polling phase ends with a failed read");
    break;

  case MarkerKind::Dispatch: {
    // {last tr = M_Selection * j ∈ currently_pending * j minimal in
    //  policy order} dispatch_start(j) {pending' = pending ∖ {j}}
    Result.noteCheck(3);
    if (!LastIs(MarkerKind::Selection))
      fail("dispatch_start: dispatch must follow a selection");
    if (!E.J) {
      fail("dispatch_start: no job argument");
      break;
    }
    auto It = Pending.find(E.J->Id);
    if (It == Pending.end()) {
      fail("dispatch_start: j" + std::to_string(E.J->Id) +
           " is not in currently_pending");
      break;
    }
    // The contract keys a job of an unknown task as priority 0 and
    // deadline 0, and an NP-EDF job without a deadline by its read time.
    auto ContractKey = [this](const Job &J) {
      static const Task NoTask;
      const Task *T = Tasks.findTask(J.Task);
      return policyKey(Policy, T ? T : &NoTask, J.ReadAt, J.Id)
          .value_or(J.ReadAt);
    };
    std::uint64_t K = ContractKey(It->second);
    for (const auto &[Id, J] : Pending) {
      if (Id != E.J->Id && ContractKey(J) < K) {
        fail("dispatch_start: j" + std::to_string(Id) +
             " precedes the dispatched job in " + toString(Policy) +
             " order");
        break;
      }
    }
    Pending.erase(It);
    break;
  }

  case MarkerKind::Execution:
    // {last tr = M_Dispatch j} execution_start(j).
    Result.noteCheck();
    if (!LastIs(MarkerKind::Dispatch) || !Last->J || !E.J ||
        Last->J->Id != E.J->Id)
      fail("execution_start: must follow the dispatch of the same job");
    break;

  case MarkerKind::Completion:
    // {last tr = M_Execution j} completion_start(j).
    Result.noteCheck();
    if (!LastIs(MarkerKind::Execution) || !Last->J || !E.J ||
        Last->J->Id != E.J->Id)
      fail("completion_start: must follow the execution of the same "
           "job");
    break;

  case MarkerKind::Idling:
    // The paper's worked example:
    // {last tr = M_Selection * currently_pending ∅} idling_start().
    Result.noteCheck(2);
    if (!LastIs(MarkerKind::Selection))
      fail("idling_start: must follow a selection (last tr = "
           "M_Selection)");
    if (!Pending.empty())
      fail("idling_start: currently_pending is not empty (" +
           std::to_string(Pending.size()) + " jobs)");
    break;
  }

  // Postcondition common to every marker function: current_trace
  // becomes tr ++ [marker] — of which only the last element and the
  // length are ever needed again.
  Last = E;
  ++Pos;
}

CheckResult rprosa::checkMarkerSpecs(const Trace &Tr, const TaskSet &Tasks,
                                     SchedPolicy Policy) {
  MarkerSpecChecker C(Tasks, Policy);
  for (const MarkerEvent &E : Tr)
    C.step(E);
  return C.result();
}
