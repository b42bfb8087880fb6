//===- rta/bounds.cpp -----------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "rta/bounds.h"

using namespace rprosa;

OverheadBounds OverheadBounds::compute(const BasicActionWcets &W,
                                       std::uint32_t NumSockets) {
  OverheadBounds B;
  B.PB = satMul(NumSockets, W.FailedRead);
  B.SB = W.Selection;
  B.DB = W.Dispatch;
  B.CB = W.Completion;
  B.RB = satAdd(B.PB, W.SuccessfulRead);
  B.IB = satAdd(satAdd(B.PB, B.SB), W.Idling);
  return B;
}

TaskSet TimingInputs::applyTo(const TaskSet &Tasks) const {
  TaskSet Out;
  for (const Task &T : Tasks.tasks())
    Out.addTask(T.Name, callbackWcet(T.Id, T.Wcet), T.Prio, T.Curve,
                T.Deadline);
  return Out;
}

std::string rprosa::toString(TimingSource S) {
  switch (S) {
  case TimingSource::HandSupplied:
    return "hand-supplied";
  case TimingSource::StaticAnalysis:
    return "static-analysis";
  }
  return "?";
}
