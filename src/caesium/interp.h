//===- caesium/interp.h - The instrumented operational semantics (Fig. 6) -===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable counterpart of the paper's extended Caesium semantics
/// (Fig. 6). The machine state is State = State_heap × State_trace:
///
///  - State_heap: the message buffers the program manipulates;
///  - State_trace: { idx : job_id, id_map : msg_data →fin list Job } —
///    the unique-id counter bumped by READ-STEP-SUCCESS and the
///    data-to-jobs map the marker functions use to look up the job for
///    a given datagram (deliberately keyed by *data*, which may repeat
///    across messages — footnote 5's point).
///
/// Step rules implemented exactly as in the figure:
///  - READ-STEP-FAILURE: read returns -1, emits M_ReadE sock ⊥;
///  - READ-STEP-SUCCESS: assigns id σ.idx, increments it, appends the
///    job to id_map[data], writes the data to the heap, emits
///    M_ReadE sock j;
///  - TRACE-STEP-IDLING (and friends): emit the corresponding marker;
///    TRACE-STEP-DISPATCH reads the data from the heap and resolves the
///    *first* job id mapped to it (id_map[data] = j :: js).
///
/// Time: each rule advances the virtual clock by the same cost-model
/// samples, in the same order, as the native scheduler — so a program
/// equivalent to Fig. 2 produces a bit-identical timed trace (the
/// differential tests assert this). Non-marker statements additionally
/// charge the cost model's InstructionCosts (zero by default, which
/// preserves the bit-identical property; the static timing analysis
/// uses nonzero costs to make every CFG node observable on the clock).
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_CAESIUM_INTERP_H
#define RPROSA_CAESIUM_INTERP_H

#include "caesium/ast.h"

#include "core/pending_queue.h"
#include "rossl/client.h"
#include "rossl/markers.h"
#include "rossl/scheduler.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "sim/environment.h"
#include "trace/trace.h"

#include <deque>
#include <map>
#include <optional>
#include <string>

namespace rprosa::caesium {

/// A defined-behaviour stop of the machine on an arithmetic or memory
/// error the C original would make undefined: the run halts, the trace
/// emitted so far stands (a finite prefix, which every trace property
/// quantifies over anyway). Each kind corresponds 1:1 to a check-id of
/// the static value-range analysis (analysis/dataflow/analyses.h), so
/// static verdicts and runtime traps can be cross-validated literally.
struct RuntimeTrap {
  enum class Kind : std::uint8_t {
    SignedOverflow, ///< +, -, or / overflowed the Value range.
    DivByZero,      ///< / or % with a zero divisor.
    SocketRange,    ///< read() with a socket outside [0, numSockets).
  };

  Kind K = Kind::SignedOverflow;
  std::string Message;

  /// The matching static check-id ("value-range.div-by-zero", ...).
  std::string checkId() const;
};

/// The "data" of a message as the program sees it: the classifier's
/// task tag plus the payload length. NOT unique across messages — which
/// is exactly why Fig. 6 introduces the id counter.
struct MsgData {
  TaskId Task = InvalidTaskId;
  std::uint32_t PayloadLen = 0;

  bool operator<(const MsgData &O) const {
    return Task != O.Task ? Task < O.Task : PayloadLen < O.PayloadLen;
  }
};

/// The default machine's size: its registers and message buffers. The
/// machine-range lint (analysis/lint.h) checks programs against it.
inline constexpr std::size_t DefaultNumRegs = 8;
inline constexpr std::size_t DefaultNumBuffers = 4;

/// The deep-embedding interpreter: runs a program against the simulated
/// environment, producing the timed marker trace.
class CaesiumMachine {
public:
  CaesiumMachine(const ClientConfig &Client, Environment &Env,
                 CostModel &Costs, std::size_t NumBuffers = DefaultNumBuffers,
                 std::size_t NumRegs = DefaultNumRegs);

  /// Runs \p Program to completion (its loops consume Fuel) and returns
  /// the emitted timed trace. A runtime trap (see trap()) ends the run
  /// early; the returned trace is the prefix emitted before it.
  TimedTrace run(const StmtPtr &Program, const RunLimits &Limits);

  /// σ_trace.idx after the run (next fresh job id).
  JobId nextJobId() const { return Idx; }

  /// The trap that stopped the last run, if any.
  const std::optional<RuntimeTrap> &trap() const { return TrapState; }

private:
  Value eval(const Expr &E) const;
  void exec(const Stmt &S);
  /// Records the first trap (later ones are consequences of running on
  /// a poisoned state and are dropped).
  void setTrap(RuntimeTrap::Kind K, std::string Message) const;

  void stepRead(const Stmt &S);
  void stepTrace(const Stmt &S);

  /// One buffer of State_heap: the datagram the last read/dequeue put
  /// there (Msg carries the environment's identity for bookkeeping; the
  /// semantics only keys on data()).
  struct Buffer {
    std::optional<Message> Msg;
  };

  MsgData dataOf(const Message &M) const {
    return MsgData{M.Task, M.PayloadLen};
  }

  const ClientConfig &Client;
  Environment &Env;
  CostModel &Costs;
  VirtualClock Clock;
  MarkerRecorder Recorder;
  RunLimits Limits;

  // State_heap.
  std::vector<Buffer> Heap;
  std::vector<Value> Regs;

  // State_trace (Fig. 6).
  JobId Idx = 1;
  std::map<MsgData, std::deque<JobId>> IdMap;
  /// Bookkeeping: the full Job per id (the Rocq development carries the
  /// job as (data, id); we additionally remember socket/msg/read-time
  /// so the emitted markers match the native scheduler's exactly).
  std::map<JobId, Job> JobTable;

  // The scheduler-state builtin (fds->sched): pending messages in NPFP
  // order — this embedding implements the paper's policy.
  PendingQueue<Message> Pending;

  /// The job resolved by the last TrDisp (the C local `j`).
  std::optional<Job> CurrentJob;

  /// Set by eval/stepRead on the first arithmetic or socket-range
  /// error; mutable because eval is const. Cleared at the start of each
  /// run.
  mutable std::optional<RuntimeTrap> TrapState;
};

} // namespace rprosa::caesium

#endif // RPROSA_CAESIUM_INTERP_H
