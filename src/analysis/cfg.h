//===- analysis/cfg.h - Control-flow graph over the Caesium AST -----------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static-analysis substrate: the deeply-embedded `Stmt` tree
/// (caesium/ast.h) lowered into an explicit control-flow graph. Each
/// node is one atomic effect of the Fig. 6 semantics (an assignment, a
/// two-way branch, a read system call, a marker call, a scheduler-state
/// builtin); structured control flow (Seq/If/While) disappears into
/// edges. The verifier (verifier.h) explores this graph in product with
/// the protocol STS, and the lint passes (lint.h) run dataflow and
/// reachability over it.
///
/// Nondeterminism is *not* encoded as extra edges: a Read node has one
/// successor, and the analysis branches on its two outcomes
/// (READ-STEP-SUCCESS / READ-STEP-FAILURE); likewise Dequeue (hit /
/// miss). Only Branch nodes have two successors.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_ANALYSIS_CFG_H
#define RPROSA_ANALYSIS_CFG_H

#include "caesium/ast.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace rprosa::analysis {

/// Index of a node in Cfg::Nodes.
using NodeId = std::uint32_t;
inline constexpr NodeId InvalidNode = static_cast<NodeId>(-1);

/// One atomic step of the lowered program.
struct CfgNode {
  enum class Kind : std::uint8_t {
    Entry,   ///< The unique entry; no effect.
    Exit,    ///< The unique exit; a run may also stop anywhere (finite
             ///< prefixes), but reaching Exit ends every path.
    Assign,  ///< reg(Dst) := E.
    Branch,  ///< if (E) goto Succ else goto FalseSucc.
    Read,    ///< The read system call on socket reg(Reg) into Buf;
             ///< reg(Dst) := length or -1; emits M_ReadS + M_ReadE.
    Trace,   ///< A marker call (Fn; buffer Buf for TrDisp/TrExec/TrCompl).
    Enqueue, ///< npfp_enqueue(&sched, Buf).
    Dequeue, ///< npfp_dequeue(&sched) into Buf; reg(Dst) := 1/0.
    Free,    ///< free(Buf).
  };

  Kind K = Kind::Entry;
  caesium::ExprPtr E = nullptr; ///< Assign value / Branch condition.
  caesium::RegId Dst = 0;       ///< Assign / Read / Dequeue result register.
  caesium::RegId Reg = 0;       ///< Read socket register.
  caesium::BufId Buf = 0;       ///< Read/Trace/Enqueue/Dequeue/Free buffer.
  caesium::TraceFn Fn = caesium::TraceFn::TrIdling; ///< Trace only.

  NodeId Succ = InvalidNode;      ///< Fallthrough / branch-taken successor.
  NodeId FalseSucc = InvalidNode; ///< Branch-not-taken successor.

  /// 1-based source line of the statement this node was lowered from;
  /// 0 when the AST was built programmatically (Stmt::Line).
  std::uint32_t Line = 0;

  /// One-line C-like rendering ("r2 = read(r0, buf0)") for diagnostics
  /// and counterexample trails.
  std::string label() const;
  /// Appends label() to \p Out: the one renderer behind label(),
  /// nodeLabel and nodeRef, so a text made of many labels (a witness
  /// trail) is written in place, without a string per label.
  void appendLabel(std::string &Out) const;
};

/// The lowered program. Node 0 is Entry; Exit is the unique sink.
struct Cfg {
  std::vector<CfgNode> Nodes;
  NodeId Entry = 0;
  NodeId Exit = 0;
  /// The source AST root (nodes share its Expr subtrees). The AstArena
  /// that built it owns the storage and must outlive this Cfg — either
  /// a caller-scoped arena (file mode, fuzzing) or the process-lifetime
  /// staticProgramArena() behind buildRosslProgram and the mutant
  /// corpora.
  caesium::StmtPtr Root = nullptr;

  std::size_t size() const { return Nodes.size(); }
  const CfgNode &operator[](NodeId N) const { return Nodes[N]; }

  /// 1 + the highest register id mentioned anywhere in the program.
  /// The first call counts (one allocation-free walk over the nodes)
  /// and later calls read the count, so a graph assembled by hand must
  /// have its nodes before the first call.
  std::uint32_t numRegs() const;
  /// 1 + the highest buffer id mentioned anywhere in the program,
  /// counted once like numRegs().
  std::uint32_t numBufs() const;

  /// The successors of one node, in fixed order (Succ, then a Branch's
  /// FalseSucc): an inline view of at most two ids, so iterating them
  /// allocates nothing.
  class Successors {
  public:
    const NodeId *begin() const { return Ids; }
    const NodeId *end() const { return Ids + Count; }
    std::size_t size() const { return Count; }
    NodeId operator[](std::size_t I) const { return Ids[I]; }

  private:
    friend struct Cfg;
    NodeId Ids[2] = {InvalidNode, InvalidNode};
    std::uint8_t Count = 0;
  };

  /// The successors of \p N (0, 1, or 2 of them).
  Successors successors(NodeId N) const {
    const CfgNode &Node = Nodes[N];
    Successors Out;
    if (Node.Succ != InvalidNode)
      Out.Ids[Out.Count++] = Node.Succ;
    if (Node.K == CfgNode::Kind::Branch && Node.FalseSucc != InvalidNode)
      Out.Ids[Out.Count++] = Node.FalseSucc;
    return Out;
  }

  /// Multi-line text dump (one node per line, with edges) for tests and
  /// debugging.
  std::string dump() const;

private:
  friend Cfg &buildCfg(const caesium::StmtPtr &Program, Cfg &Out);

  /// A count taken by the first call that needs it and kept; copies
  /// carry it, and buildCfg resets it when it lowers a new program.
  /// Relaxed atomics let threads that share a Cfg take it at once: each
  /// stores the same value.
  class KeptCount {
  public:
    KeptCount() = default;
    KeptCount(const KeptCount &O) : V(O.V.load(std::memory_order_relaxed)) {}
    KeptCount &operator=(const KeptCount &O) {
      V.store(O.V.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
    /// The kept count, or \p Count() kept on the first call.
    template <class F> std::uint32_t get(F Count) const {
      std::uint32_t C = V.load(std::memory_order_relaxed);
      if (C == None) {
        C = Count();
        V.store(C, std::memory_order_relaxed);
      }
      return C;
    }

  private:
    static constexpr std::uint32_t None = UINT32_MAX;
    mutable std::atomic<std::uint32_t> V{None};
  };
  KeptCount Regs, Bufs;
};

/// "n<id> (<label>)": node \p N as a finding's message names it.
std::string nodeRef(const Cfg &G, NodeId N);
/// "n<id>: <label>": node \p N as one line of a path or trail.
std::string nodeLabel(const Cfg &G, NodeId N);
/// Appends "n<Id>: <label>" for \p Node, numbered \p Id, to \p Out:
/// nodeLabel(G, Id) when \p Node is G[Id].
void appendNodeLabel(NodeId Id, const CfgNode &Node, std::string &Out);
/// Appends the register of every Reg leaf of \p E, in pre-order.
void collectRegs(const caesium::Expr &E, std::vector<caesium::RegId> &Out);
/// True iff \p E calls fuel() anywhere.
bool mentionsFuel(const caesium::Expr &E);

/// The strongly connected components of a Cfg's edge relation. Nodes
/// unreachable from Entry get components too.
struct CycleComponents {
  /// Node -> the id of its component, dense from 0.
  std::vector<std::uint32_t> Of;
  /// Component id -> the component lies on a cycle: it has more than
  /// one node, or its one node has an edge to itself.
  std::vector<bool> Cyclic;

  std::size_t size() const { return Cyclic.size(); }
  /// True iff \p N lies on some cycle (a non-empty path N -> ... -> N).
  bool onCycle(NodeId N) const { return Cyclic[Of[N]]; }
};

/// One iterative Tarjan pass over every node of \p G, linear in nodes
/// plus edges. Iterative so that DFS depth, which grows with program
/// length, never touches the call stack. The loop classification of
/// the timing pass (timing/loop_bounds.h) and the fuel-termination
/// lint (lint.h) both read their loops off this.
CycleComponents cycleComponents(const Cfg &G);

/// Lowers \p Program into a Cfg. Every statement kind of the embedding
/// is supported; the result always has exactly one Entry and one Exit.
Cfg buildCfg(const caesium::StmtPtr &Program);

/// Buffer-reusing variant for steady-state re-lowering (the incremental
/// analyzer and the E24 bench): clears \p Out and lowers into its node
/// vector, reusing its capacity so repeated lowerings of same-sized
/// programs touch only warm pages. Returns \p Out.
Cfg &buildCfg(const caesium::StmtPtr &Program, Cfg &Out);

} // namespace rprosa::analysis

#endif // RPROSA_ANALYSIS_CFG_H
