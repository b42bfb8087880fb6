//===- convert/validity_stream.h - Streaming §2.4 validity checks ---------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §2.4 validity constraints (see convert/validity.h) as a
/// ScheduleEventConsumer with O(tasks + open jobs) state:
///
///  - (a) per-instance duration bounds are checked as segments arrive;
///  - per-job usage (ReadOvh totals, execution segments, PollingOvh
///    instances) is accumulated live and *evaluated at retirement*,
///    after which the job's state is dropped;
///  - (b)/(e) arrival consistency and uniqueness run at admission;
///  - (c) policy compliance runs at selection, against the currently
///    open jobs — on protocol-conformant traces these are all the pairs
///    that can fail (a retired competitor was dispatched before the
///    selection, a not-yet-admitted one is read after it);
///    checkValidity admits the whole table before any selection, so
///    there every table entry is a competitor;
///  - (d) event ordering runs at retirement (open jobs at the end).
///
/// Failures are reported grouped by constraint, not by event time: they
/// are buffered with a canonical sort key (constraint block, then table
/// index or job id) and ordered once at the end. This class is the
/// library's one implementation of (a)-(e); checkValidity (validity.h)
/// replays a ConversionResult into it, and the equivalence and
/// differential suites compare both with the whole-table reference
/// checker kept under tests/.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_CONVERT_VALIDITY_STREAM_H
#define RPROSA_CONVERT_VALIDITY_STREAM_H

#include "convert/schedule_builder.h"
#include "convert/validity.h"
#include "support/interval_set.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rprosa {

/// Streaming validity checker; attach to a ScheduleBuilder (directly or
/// via ScheduleEventFanout). The result is complete after
/// onScheduleEnd.
class StreamingValidity final : public ScheduleEventConsumer {
public:
  StreamingValidity(const TaskSet &Tasks, const ArrivalSequence &Arr,
                    const BasicActionWcets &W, std::uint32_t NumSockets,
                    SchedPolicy Policy = SchedPolicy::Npfp);

  void onScheduleStart(Time At) override;
  void onSegment(const ScheduleSegment &Seg) override;
  void onJobAdmitted(const ConvertedJob &CJ, std::size_t Index) override;
  void onJobSelected(const ConvertedJob &CJ, std::size_t Index) override;
  void onJobDispatched(const ConvertedJob &CJ, std::size_t Index) override;
  void onJobRetired(const ConvertedJob &CJ, std::size_t Index) override;
  void onScheduleEnd(
      const std::vector<std::pair<std::size_t, ConvertedJob>> &Open) override;

  /// Valid after onScheduleEnd.
  const CheckResult &result() const { return R; }
  CheckResult take() { return std::move(R); }

  /// Live-state introspection for the retirement tests.
  std::size_t openRecords() const { return Recs.size(); }
  std::size_t openUsage() const { return Usage.size(); }

private:
  /// Per-job accumulated quantities over the schedule segments.
  struct JobUsage {
    Duration ReadOvh = 0;
    Duration ExecTime = 0;
    std::size_t ExecSegments = 0;
    std::size_t PollingInstances = 0;
  };
  /// A live job record (dropped at retirement).
  struct VRec {
    ConvertedJob CJ;
    std::size_t Index = 0;
    bool Keyed = false;
    bool SelectedCounted = false;
  };
  /// A buffered failure with its canonical position: constraint block
  /// (report section order), then table index or job id within it.
  struct Pending {
    std::uint32_t Block;
    std::uint64_t K1;
    std::uint64_t K2;
    std::string Msg;
  };

  void fail(std::uint32_t Block, std::uint64_t K1, std::uint64_t K2,
            std::string Msg);
  /// The usage + non-preemptivity block for one job id; \p CJ may be
  /// null (job never entered the table).
  void evalUsage(JobId Id, const JobUsage &U, const ConvertedJob *CJ);
  /// The per-job event-ordering block.
  void evalOrdering(const ConvertedJob &CJ, std::size_t Index);

  const TaskSet &Tasks;
  const ArrivalSequence &Arr;
  BasicActionWcets W;
  SchedPolicy Policy;
  Duration PB;
  Duration RB;

  CheckResult R;
  std::vector<Pending> Buffered;

  std::map<JobId, JobUsage> Usage;
  std::map<JobId, VRec> Recs;
  IdIntervalSet SeenIds;
  IdIntervalSet SeenMsgs;
  std::size_t SegIndex = 0;
  std::size_t KeyedJobs = 0;    ///< K: keyed jobs ever admitted.
  std::size_t SelectedKeyed = 0; ///< S: keyed jobs that got selected.
};

} // namespace rprosa

#endif // RPROSA_CONVERT_VALIDITY_STREAM_H
