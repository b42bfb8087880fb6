//===- caesium/ast.h - A deep embedding of the scheduler language ---------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RefinedC reasons about C by translating it into Caesium, a deep
/// embedding of (a subset of) C in Rocq; Fig. 6 extends Caesium with
/// the read expression (ReadE) and the marker expression (TraceE), and
/// with a trace component in the program state. This module is the
/// executable analogue: a small deeply-embedded imperative language —
/// just rich enough to express the Rössl scheduling loop — whose
/// small-step interpreter (interp.h) implements exactly the Fig. 6
/// rules (READ-STEP-SUCCESS/FAILURE, TRACE-STEP-*), emitting the timed
/// marker trace as it runs.
///
/// The payoff is a differential-testing substrate: Rössl written *in
/// the embedded language* (rossl_program.h) must produce, step for
/// step, the same timed trace as the native C++ scheduler — the
/// executable counterpart of RefinedC's claim that the verified
/// semantics captures the C program's behaviour.
///
/// Storage model (DESIGN.md §14): nodes live in an `AstArena` — a
/// bump-pointer arena (support/arena.h) — and `ExprPtr`/`StmtPtr` are
/// plain pointers into it. Every node also carries a dense 32-bit id
/// (creation order within its arena), so analyses can key flat side
/// arrays by node instead of hashing pointers. Statement blocks are
/// arena-allocated arrays viewed through `StmtList`, not std::vectors,
/// which keeps the whole tree trivially destructible and contiguous in
/// allocation order — the order every consumer (print, interpreter,
/// CFG lowering) walks it in.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_CAESIUM_AST_H
#define RPROSA_CAESIUM_AST_H

#include "support/arena.h"

#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <mutex>
#include <vector>

namespace rprosa::caesium {

/// Machine values are signed words (C's int in the original).
using Value = std::int64_t;
/// Register index (the locals of the C function).
using RegId = std::uint32_t;
/// Heap buffer slot index (the message buffers the C code allocates).
using BufId = std::uint32_t;

struct Expr;
struct Stmt;
/// Non-owning pointer into the AstArena that built the node. The arena
/// must outlive every structure holding one of these (Cfg keeps a Root
/// pointer for exactly this reason — see analysis/cfg.h).
using ExprPtr = const Expr *;
using StmtPtr = const Stmt *;
/// Dense per-arena node ids (creation order, starting at 0).
using ExprId = std::uint32_t;
using StmtId = std::uint32_t;

/// Pure expressions over registers.
struct Expr {
  enum class Kind : std::uint8_t {
    Lit,   ///< A constant.
    Reg,   ///< A register read.
    Add,   ///< L + R.
    Sub,   ///< L - R.
    Div,   ///< L / R (C semantics: truncation toward zero; R == 0 and
           ///< INT64_MIN / -1 are runtime traps, statically flagged by
           ///< the value-range analysis).
    Mod,   ///< L % R (same trap conditions as Div).
    Less,  ///< L < R (0/1).
    Eq,    ///< L == R (0/1).
    Not,   ///< !L (0/1).
    Fuel,  ///< 1 while the run limits allow another iteration, else 0.
           ///< The executable stand-in for the paper's finite-prefix
           ///< reasoning horizon t_hrzn (the C loop is `while(1)`).
  };

  Kind K = Kind::Lit;
  Value Lit = 0;
  RegId Reg = 0;
  /// Dense id within the owning arena (see AstArena::numExprs()).
  ExprId Id = 0;
  ExprPtr L = nullptr;
  ExprPtr R = nullptr;
};

/// The marker functions of Fig. 4/6 (TraceFn in the paper's grammar;
/// M_ReadS/M_ReadE are emitted by the ReadE statement itself).
enum class TraceFn : std::uint8_t {
  TrSelection,
  TrDisp,
  TrExec,
  TrCompl,
  TrIdling,
};

/// A view of a statement block: a contiguous arena-allocated array of
/// child pointers. Mirrors the read-only surface of the std::vector it
/// replaced (size/index/iteration, forward and reverse — CFG lowering
/// walks blocks backwards).
class StmtList {
public:
  using value_type = StmtPtr;
  using const_iterator = const StmtPtr *;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  StmtList() = default;
  StmtList(const StmtPtr *Data, std::uint32_t Count)
      : Data(Data), Count(Count) {}

  std::size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  StmtPtr operator[](std::size_t I) const { return Data[I]; }
  const_iterator begin() const { return Data; }
  const_iterator end() const { return Data + Count; }
  const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  const_reverse_iterator rend() const {
    return const_reverse_iterator(begin());
  }

private:
  const StmtPtr *Data = nullptr;
  std::uint32_t Count = 0;
};

/// Statements. ReadE and the scheduler-state builtins correspond to the
/// system call and the npfp_* helper functions of the C code; TraceE is
/// the ghost marker call.
struct Stmt {
  enum class Kind : std::uint8_t {
    Seq,     ///< Children in order.
    SetReg,  ///< Reg := E.
    If,      ///< if (E) Children[0] else Children[1] (else optional).
    While,   ///< while (E) Children[0].
    ReadE,   ///< The read system call on socket reg(Reg), writing the
             ///< datagram into buffer Buf; reg(Dst) := length or -1.
             ///< Emits M_ReadS and M_ReadE (Fig. 6 READ-STEP-*).
    TraceE,  ///< A marker function call (Fig. 6 TRACE-STEP-*); for
             ///< TrDisp/TrExec/TrCompl the argument buffer is Buf.
    Enqueue, ///< npfp_enqueue(&sched, buffer Buf) — adds the read
             ///< message to the pending queue.
    Dequeue, ///< npfp_dequeue(&sched) — pops the policy's next message
             ///< into buffer Buf; reg(Dst) := 1 on success else 0.
    FreeBuf, ///< free(j) — clears buffer Buf.
  };

  Kind K = Kind::Seq;
  StmtList Children;
  ExprPtr E = nullptr;
  RegId Reg = 0;
  RegId Dst = 0;
  BufId Buf = 0;
  TraceFn Fn = TraceFn::TrIdling;
  /// 1-based source line of the statement when it came from the parser;
  /// 0 for programmatically built ASTs. Carried onto CFG nodes so the
  /// static analyses can emit file/line diagnostics.
  std::uint32_t Line = 0;
  /// Dense id within the owning arena (see AstArena::numStmts()).
  StmtId Id = 0;
};

/// Owns the nodes of one or more programs. All factory methods return
/// pointers that stay valid for the arena's lifetime; nodes are handed
/// out with dense ids in creation order, retrievable via expr()/stmt().
///
/// Alloc::Bump is the production mode (chunked bump pointer);
/// Alloc::PerNode routes every node through operator new and exists
/// only as the E24 baseline, so `bench/parse_cost` can measure the
/// arena layout against a faithful stand-in for the old
/// shared_ptr-per-node storage.
class AstArena {
public:
  enum class Alloc : std::uint8_t { Bump, PerNode };

  explicit AstArena(Alloc Mode = Alloc::Bump) : Mode(Mode) {}
  ~AstArena();
  AstArena(const AstArena &) = delete;
  AstArena &operator=(const AstArena &) = delete;

  // Expression factories. Defined inline: the parser creates one node
  // per few tokens, so construction must fold into the caller — a bump
  // increment plus one store per field, no call into another TU and no
  // zero-fill that the next instruction overwrites.
  ExprPtr lit(Value V) {
    return makeExpr(Expr::Kind::Lit, V, 0, nullptr, nullptr);
  }
  ExprPtr reg(RegId R) {
    return makeExpr(Expr::Kind::Reg, 0, R, nullptr, nullptr);
  }
  ExprPtr add(ExprPtr L, ExprPtr R) {
    return makeExpr(Expr::Kind::Add, 0, 0, L, R);
  }
  ExprPtr sub(ExprPtr L, ExprPtr R) {
    return makeExpr(Expr::Kind::Sub, 0, 0, L, R);
  }
  ExprPtr divE(ExprPtr L, ExprPtr R) {
    return makeExpr(Expr::Kind::Div, 0, 0, L, R);
  }
  ExprPtr modE(ExprPtr L, ExprPtr R) {
    return makeExpr(Expr::Kind::Mod, 0, 0, L, R);
  }
  ExprPtr less(ExprPtr L, ExprPtr R) {
    return makeExpr(Expr::Kind::Less, 0, 0, L, R);
  }
  ExprPtr eq(ExprPtr L, ExprPtr R) {
    return makeExpr(Expr::Kind::Eq, 0, 0, L, R);
  }
  ExprPtr notE(ExprPtr L) {
    return makeExpr(Expr::Kind::Not, 0, 0, L, nullptr);
  }
  ExprPtr fuel() {
    return makeExpr(Expr::Kind::Fuel, 0, 0, nullptr, nullptr);
  }

  // Statement factories.
  StmtPtr seq(const StmtPtr *Children, std::size_t Count) {
    StmtPtr *Arr = newChildArray(Count);
    for (std::size_t I = 0; I < Count; ++I)
      Arr[I] = Children[I];
    return makeStmt(Stmt::Kind::Seq,
                    StmtList(Arr, static_cast<std::uint32_t>(Count)), nullptr,
                    0, 0, 0, TraceFn::TrIdling);
  }
  StmtPtr seq(std::initializer_list<StmtPtr> Children) {
    return seq(Children.begin(), Children.size());
  }
  StmtPtr seq(const std::vector<StmtPtr> &Children) {
    return seq(Children.data(), Children.size());
  }
  StmtPtr setReg(RegId Dst, ExprPtr E) {
    return makeStmt(Stmt::Kind::SetReg, StmtList(), E, 0, Dst, 0,
                    TraceFn::TrIdling);
  }
  StmtPtr ifThen(ExprPtr Cond, StmtPtr Then, StmtPtr Else = nullptr) {
    std::size_t Count = Else ? 2 : 1;
    StmtPtr *Arr = newChildArray(Count);
    Arr[0] = Then;
    if (Else)
      Arr[1] = Else;
    return makeStmt(Stmt::Kind::If,
                    StmtList(Arr, static_cast<std::uint32_t>(Count)), Cond, 0,
                    0, 0, TraceFn::TrIdling);
  }
  StmtPtr whileLoop(ExprPtr Cond, StmtPtr Body) {
    StmtPtr *Arr = newChildArray(1);
    Arr[0] = Body;
    return makeStmt(Stmt::Kind::While, StmtList(Arr, 1), Cond, 0, 0, 0,
                    TraceFn::TrIdling);
  }
  StmtPtr readE(RegId SockReg, BufId Buf, RegId Dst) {
    return makeStmt(Stmt::Kind::ReadE, StmtList(), nullptr, SockReg, Dst, Buf,
                    TraceFn::TrIdling);
  }
  StmtPtr traceE(TraceFn Fn, BufId Buf = 0) {
    return makeStmt(Stmt::Kind::TraceE, StmtList(), nullptr, 0, 0, Buf, Fn);
  }
  StmtPtr enqueue(BufId Buf) {
    return makeStmt(Stmt::Kind::Enqueue, StmtList(), nullptr, 0, 0, Buf,
                    TraceFn::TrIdling);
  }
  StmtPtr dequeue(BufId Buf, RegId Dst) {
    return makeStmt(Stmt::Kind::Dequeue, StmtList(), nullptr, 0, Dst, Buf,
                    TraceFn::TrIdling);
  }
  StmtPtr freeBuf(BufId Buf) {
    return makeStmt(Stmt::Kind::FreeBuf, StmtList(), nullptr, 0, 0, Buf,
                    TraceFn::TrIdling);
  }

  /// Stamp the source line on a freshly built statement. Only the
  /// builder that created the node may call this (the parser, as it
  /// closes each statement); nodes are immutable once published.
  void setLine(StmtPtr S, std::uint32_t Line) {
    // Legal: every StmtPtr handed out by this arena points at a node it
    // created mutable; const-ness is the published read-only interface.
    const_cast<Stmt *>(S)->Line = Line;
  }

  /// Drop every node but keep the underlying storage for reuse.
  /// Invalidates all ExprPtr/StmtPtr handed out so far; dense ids
  /// restart at 0. The steady-state re-parse path (bench/parse_cost)
  /// parses into a warm arena instead of paying the first-touch cost of
  /// fresh chunks on every program.
  void reset();

  /// Dense-id views: every node ever created, in creation order.
  std::uint32_t numExprs() const {
    return static_cast<std::uint32_t>(ExprById.size());
  }
  std::uint32_t numStmts() const {
    return static_cast<std::uint32_t>(StmtById.size());
  }
  ExprPtr expr(ExprId Id) const { return ExprById[Id]; }
  StmtPtr stmt(StmtId Id) const { return StmtById[Id]; }

  /// Bytes handed out for nodes and child arrays (both modes).
  std::size_t bytesUsed() const;
  Alloc mode() const { return Mode; }

private:
  // Write-once construction: every field is stored exactly once by the
  // aggregate init — no zero-fill that the caller immediately
  // overwrites. At ~12.5M nodes for the largest generated spec the
  // redundant store traffic is measurable.
  ExprPtr makeExpr(Expr::Kind K, Value Lit, RegId Reg, ExprPtr L, ExprPtr R) {
    auto Id = static_cast<ExprId>(ExprById.size());
    Expr *E = Mode == Alloc::Bump
                  ? Bump.create<Expr>(K, Lit, Reg, Id, L, R)
                  : ::new (perNodeExpr()) Expr{K, Lit, Reg, Id, L, R};
    ExprById.push_back(E);
    return E;
  }
  StmtPtr makeStmt(Stmt::Kind K, StmtList Children, ExprPtr E, RegId Reg,
                   RegId Dst, BufId Buf, TraceFn Fn) {
    auto Id = static_cast<StmtId>(StmtById.size());
    Stmt *S =
        Mode == Alloc::Bump
            ? Bump.create<Stmt>(K, Children, E, Reg, Dst, Buf, Fn, 0u, Id)
            : ::new (perNodeStmt()) Stmt{K, Children, E, Reg, Dst, Buf, Fn, 0,
                                         Id};
    StmtById.push_back(S);
    return S;
  }
  StmtPtr *newChildArray(std::size_t Count) {
    if (Count == 0)
      return nullptr;
    return Mode == Alloc::Bump ? Bump.allocateArray<StmtPtr>(Count)
                               : perNodeChildArray(Count);
  }

  // The PerNode (E24 baseline) allocation paths stay out of line: they
  // model the old one-heap-allocation-per-node layout, not a hot path.
  // Each returns registered-but-uninitialised storage.
  void *perNodeExpr();
  void *perNodeStmt();
  StmtPtr *perNodeChildArray(std::size_t Count);

  Alloc Mode;
  BumpArena Bump;
  /// PerNode mode: every allocation, freed in the destructor.
  std::vector<void *> PerNodeAllocs;
  std::size_t PerNodeBytes = 0;
  std::vector<ExprPtr> ExprById;
  std::vector<StmtPtr> StmtById;
};

/// Process-lifetime arena for the memoized fixed program artifacts —
/// buildRosslProgram(N) and the mutant corpora cache their results
/// here so repeated bench/test calls reuse one tree per key instead of
/// rebuilding (and so the returned pointers never dangle). Every build
/// into this arena must hold staticProgramMutex(): the memo maps in
/// rossl_program.cpp and mutants.cpp share it, and the sweep benches
/// request programs from pool workers.
AstArena &staticProgramArena();
std::mutex &staticProgramMutex();

} // namespace rprosa::caesium

#endif // RPROSA_CAESIUM_AST_H
