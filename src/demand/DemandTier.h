//===- DemandTier.h - Demand-first query tier -------------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving tier over DemandSolver: per-query governor construction, an
/// LRU of materialized results, a cost allowance derived from the graph,
/// structured escalation to an exhaustive governed solve when a query's
/// deduction budget trips or the allowance is spent, and delta adoption
/// mirroring IncrementalSolver::resolveSystem. Layering: this
/// class deliberately knows nothing about the serve library — QueryEngine
/// and ServeSession consult *it* (the demand memo is the first tier,
/// snapshot solutions the second), never the other way around.
///
/// Cost allowance: every deduction step of every query is charged against
/// one allowance of K x |constraints| steps (K in DemandTier.cpp, DESIGN.md
/// §14), reset by construction and resolveDelta. Demand answers a query
/// only while it stays cheaper than the exhaustive solve it stands in for;
/// the query that spends the allowance escalates, exactly like a query
/// budget trip, and later queries answer from the solution.
/// AllowEscalation = false switches the allowance off.
///
/// Escalation policy ("sound fallback preserved"): a Precise or Fallback
/// exhaustive solution is adopted and serves every later query; a Partial
/// one (budget tripped with fallback disallowed) is discarded and the
/// query reports its budget-trip Status — the tier never serves unsound
/// answers. When the trip was the spent allowance, the tier instead lifts
/// the allowance and keeps deducing, so the allowance never leaves a
/// query without an answer.
///
/// Thread-safe: one mutex serializes queries (the demand solver mutates
/// shared memo state); the LRU probe in front of it is sharded and
/// lock-cheap.
///
//===----------------------------------------------------------------------===//

#ifndef AG_DEMAND_DEMANDTIER_H
#define AG_DEMAND_DEMANDTIER_H

#include "adt/LruCache.h"
#include "constraints/ConstraintSystem.h"
#include "core/PointsToSolution.h"
#include "demand/DemandSolver.h"
#include "solvers/Solve.h"

#include <memory>
#include <mutex>
#include <vector>

namespace ag {

/// Demand-first query tier over one constraint system (see file comment).
class DemandTier {
public:
  struct Options {
    /// Budget for one demand deduction (default unlimited: only the cost
    /// allowance bounds it).
    SolveBudget QueryBudget;
    /// Budget for the escalation solve (default unlimited: escalation
    /// always lands a precise exhaustive solution).
    SolveBudget EscalationBudget;
    SolverOptions EscalationOpts;
    /// Kind of the escalation solve, run after OVS (solvePipeline).
    SolverKind EscalationKind = SolverKind::PKHHCD;
    /// Escalate on a demand budget trip or a spent cost allowance. When
    /// false there is no allowance and a tripped query reports its trip
    /// Status instead.
    bool AllowEscalation = true;
    size_t CacheCapacity = size_t(1) << 16;
    size_t CacheShards = 8;
  };

  /// Shared sorted id list (the QueryEngine result convention).
  using IdList = std::shared_ptr<const std::vector<NodeId>>;

  explicit DemandTier(ConstraintSystem System)
      : DemandTier(std::move(System), Options()) {}
  DemandTier(ConstraintSystem System, const Options &Opts);

  DemandTier(const DemandTier &) = delete;
  DemandTier &operator=(const DemandTier &) = delete;

  const ConstraintSystem &system() const { return CS; }
  uint32_t numNodes() const { return CS.numNodes(); }
  bool validNode(NodeId V) const { return V < CS.numNodes(); }

  /// Sorted points-to set of \p V: demand memo first, deduction under the
  /// query budget, escalation on a trip.
  Status pointsTo(NodeId V, IdList &Out);

  /// May-alias verdict through the same tiers.
  Status alias(NodeId A, NodeId B, bool &Out);

  /// Sorted list of nodes whose set contains \p Obj.
  Status pointedBy(NodeId Obj, IdList &Out);

  /// Memo-only probes: answer (and count a memo hit) iff the class is
  /// certified-complete — never deduce. QueryEngine consults these
  /// before its snapshot solution; certified answers remain exact after
  /// escalation (same system, same least fixpoint), and resolveDelta
  /// invalidates them before the system changes.
  bool tryMemoPointsTo(NodeId V, IdList &Out);
  bool tryMemoAlias(NodeId A, NodeId B, bool &Out);

  /// Forces the escalation solve now (idempotent). Used by callers that
  /// need the whole solution (call graphs, self-checks).
  Status escalateNow();

  /// Adopts \p DeltaCS (full node table + base and new constraints, the
  /// `ptatool resolve` file shape): validates and extends the node table
  /// exactly as IncrementalSolver::resolveSystem does, appends the new
  /// constraints, invalidates affected memo entries, drops the result
  /// cache and any escalated solution.
  Status resolveDelta(const ConstraintSystem &DeltaCS);

  /// The cost allowance in deduction steps (0: none) and the steps
  /// charged against it since construction or the last resolveDelta.
  uint64_t stepAllowance() const;
  uint64_t stepsCharged() const;

  bool escalated() const { return Escalation != nullptr; }
  SolveOutcome escalationOutcome() const { return EscOutcome; }
  const Status &escalationStatus() const { return EscSt; }
  SolverKind escalationKind() const { return Opts.EscalationKind; }
  /// The adopted exhaustive solution (null until escalated()).
  std::shared_ptr<const PointsToSolution> escalationSolution() const {
    return Escalation;
  }

  uint64_t memoCompleteCount() const;
  CacheStats cacheStats() const { return Cache.stats(); }

private:
  enum ListTag : uint64_t { TagPts = 0, TagPointedBy = 1 };
  static uint64_t listKey(ListTag Tag, NodeId Id) {
    return (uint64_t(Tag) << 32) | Id;
  }

  static IdList materialize(const SparseBitVector &Bits);

  /// Sets the allowance from the current system. Mu held (or
  /// construction).
  void resetAllowance();

  /// Runs one governed deduction through \p Deduce (called with the
  /// query's governor). On a budget trip or a spent allowance escalates;
  /// ok then means "answer from the escalated solution" when escalated()
  /// holds. Mu held.
  template <typename DeduceFn> Status deduceLocked(DeduceFn &&Deduce);

  /// Runs the escalation solve if not yet run. Mu held. Returns the
  /// query-visible status: ok after adopting a sound solution, the
  /// original \p TripSt when escalation is off or landed Partial.
  /// \p CostCap marks an escalation caused by the spent allowance.
  Status escalateLocked(const Status &TripSt, bool CostCap);

  /// pointsTo/pointedBy against the adopted exhaustive solution. Mu held.
  IdList solutionPointsTo(NodeId V);
  IdList solutionPointedBy(NodeId Obj);

  Options Opts;
  ConstraintSystem CS;
  uint64_t Allowance = 0;

  mutable std::mutex Mu;
  std::unique_ptr<DemandSolver> Demand;

  /// Adopted escalation solution (sound: Precise or Fallback), null while
  /// the demand path serves.
  std::shared_ptr<const PointsToSolution> Escalation;
  SolveOutcome EscOutcome = SolveOutcome::Precise;
  Status EscSt;

  /// Reverse index over the escalated solution, built on first
  /// post-escalation pointedBy. Mu held for build and reads.
  std::vector<std::vector<NodeId>> EscReverse;
  bool EscReverseBuilt = false;

  ShardedLruCache<uint64_t, IdList> Cache;
  ShardedLruCache<uint64_t, bool> AliasCache;
};

} // namespace ag

#endif // AG_DEMAND_DEMANDTIER_H
