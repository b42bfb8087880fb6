//===- convert/trace_to_schedule.cpp --------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "convert/trace_to_schedule.h"

#include "convert/schedule_builder.h"

using namespace rprosa;

const ConvertedJob *ConversionResult::findJob(JobId Id) const {
  for (const ConvertedJob &CJ : Jobs)
    if (CJ.J.Id == Id)
      return &CJ;
  return nullptr;
}

ConversionResult rprosa::convertTraceToSchedule(const TimedTrace &TT,
                                                std::uint32_t NumSockets,
                                                CheckResult *Diags) {
  ScheduleCapture Cap;
  ScheduleBuilder Builder(NumSockets, Cap, Diags);
  replayTimedTrace(TT, Builder);
  return Cap.take();
}
