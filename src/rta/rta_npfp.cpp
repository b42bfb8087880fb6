//===- rta/rta_npfp.cpp ---------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "rta/rta_npfp.h"

#include "support/check.h"

using namespace rprosa;

bool RtaResult::allBounded() const {
  for (const TaskRta &T : PerTask)
    if (!T.Bounded)
      return false;
  return !PerTask.empty();
}

bool rprosa::meetsDeadlines(const RtaResult &R, const TaskSet &Tasks) {
  if (!R.allBounded())
    return false;
  for (const Task &T : Tasks.tasks()) {
    if (T.Deadline == 0)
      continue; // Unconstrained task: Bounded is all there is to show.
    if (R.forTask(T.Id).ResponseBound > T.Deadline)
      return false;
  }
  return true;
}

const TaskRta &RtaResult::forTask(TaskId Id) const {
  // Armed in every build type: an out-of-range id in a Release binary
  // would otherwise read past the vector and hand the caller garbage
  // bounds (experiment drivers run Release).
  RPROSA_CHECK(Id < PerTask.size(), "task id out of range for this result");
  RPROSA_CHECK(PerTask[Id].Task == Id, "per-task results are indexed by id");
  return PerTask[Id];
}
