//===- perfbench/src/event_recorder.h - Replayable converter events -------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records the ScheduleBuilder's event stream so the traced run can
/// replay it into each schedule consumer (validity, structure, verdict
/// index) on its own and time the converter apart from them.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_EVENT_RECORDER_H
#define PERFBENCH_EVENT_RECORDER_H

#include "convert/schedule_builder.h"

#include <variant>
#include <vector>

namespace perfbench {

class EventRecorder final : public rprosa::ScheduleEventConsumer {
public:
  using ConvertedJob = rprosa::ConvertedJob;

  void onScheduleStart(rprosa::Time At) override {
    Evs.push_back(Start{At});
  }
  void onSegment(const rprosa::ScheduleSegment &Seg) override {
    Evs.push_back(Seg);
  }
  void onJobAdmitted(const ConvertedJob &CJ, std::size_t Index) override {
    Evs.push_back(JobEv{JobEv::Admitted, CJ, Index});
  }
  void onJobSelected(const ConvertedJob &CJ, std::size_t Index) override {
    Evs.push_back(JobEv{JobEv::Selected, CJ, Index});
  }
  void onJobDispatched(const ConvertedJob &CJ, std::size_t Index) override {
    Evs.push_back(JobEv{JobEv::Dispatched, CJ, Index});
  }
  void onJobRetired(const ConvertedJob &CJ, std::size_t Index) override {
    Evs.push_back(JobEv{JobEv::Retired, CJ, Index});
  }
  void onScheduleEnd(
      const std::vector<std::pair<std::size_t, ConvertedJob>> &O) override {
    Open = O;
  }

  /// Delivers the recorded stream to \p C in the original order.
  void replay(rprosa::ScheduleEventConsumer &C) const {
    for (const Ev &E : Evs) {
      if (const auto *S = std::get_if<Start>(&E)) {
        C.onScheduleStart(S->At);
        continue;
      }
      if (const auto *Seg = std::get_if<rprosa::ScheduleSegment>(&E)) {
        C.onSegment(*Seg);
        continue;
      }
      const JobEv &J = std::get<JobEv>(E);
      switch (J.K) {
      case JobEv::Admitted:
        C.onJobAdmitted(J.CJ, J.Index);
        break;
      case JobEv::Selected:
        C.onJobSelected(J.CJ, J.Index);
        break;
      case JobEv::Dispatched:
        C.onJobDispatched(J.CJ, J.Index);
        break;
      case JobEv::Retired:
        C.onJobRetired(J.CJ, J.Index);
        break;
      }
    }
    C.onScheduleEnd(Open);
  }

private:
  struct Start {
    rprosa::Time At = 0;
  };
  struct JobEv {
    enum Kind : std::uint8_t { Admitted, Selected, Dispatched, Retired } K;
    ConvertedJob CJ;
    std::size_t Index = 0;
  };
  using Ev = std::variant<Start, rprosa::ScheduleSegment, JobEv>;
  std::vector<Ev> Evs;
  std::vector<std::pair<std::size_t, ConvertedJob>> Open;
};

} // namespace perfbench

#endif // PERFBENCH_EVENT_RECORDER_H
