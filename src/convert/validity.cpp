//===- convert/validity.cpp -----------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "convert/validity.h"

#include "convert/validity_stream.h"

#include <utility>
#include <vector>

using namespace rprosa;

CheckResult rprosa::checkValidity(const ConversionResult &CR,
                                  const TaskSet &Tasks,
                                  const ArrivalSequence &Arr,
                                  const BasicActionWcets &W,
                                  std::uint32_t NumSockets,
                                  SchedPolicy Policy) {
  StreamingValidity V(Tasks, Arr, W, NumSockets, Policy);
  V.onScheduleStart(CR.Sched.startTime());
  for (const ScheduleSegment &Seg : CR.Sched.segments())
    V.onSegment(Seg);
  // Every job is admitted with its final snapshot before any selection,
  // so the (c) check at each selection sees the whole table.
  for (std::size_t I = 0; I < CR.Jobs.size(); ++I)
    V.onJobAdmitted(CR.Jobs[I], I);
  for (std::size_t I = 0; I < CR.Jobs.size(); ++I)
    if (CR.Jobs[I].SelectedAt)
      V.onJobSelected(CR.Jobs[I], I);
  std::vector<std::pair<std::size_t, ConvertedJob>> Open;
  for (std::size_t I = 0; I < CR.Jobs.size(); ++I) {
    if (CR.Jobs[I].CompletedAt)
      V.onJobRetired(CR.Jobs[I], I);
    else
      Open.emplace_back(I, CR.Jobs[I]);
  }
  V.onScheduleEnd(Open);
  return V.take();
}
