//===- DemandTier.cpp - Demand-first query tier ---------------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "demand/DemandTier.h"

#include "obs/FlightRecorder.h"
#include "obs/MetricsRegistry.h"
#include "obs/RequestContext.h"
#include "obs/TraceRecorder.h"

#include <algorithm>

using namespace ag;

namespace {

/// K of the cost allowance K x |constraints| (DESIGN.md §14). A deduction
/// step costs 5-25 ns (about 10 ns on average) and the escalation
/// pipeline (OVS + PKH+HCD) as much as 100-150 average steps per
/// constraint on the bench suites, so K = 32 lets a whole-graph query
/// spend a quarter to a half of a solve before it hands over: a dense
/// first answer then costs at most ~1.5x a cold solve. Local queries
/// charge under 0.01 steps per constraint and never come near it.
constexpr uint64_t AllowanceStepsPerConstraint = 32;

} // namespace

DemandTier::DemandTier(ConstraintSystem System, const Options &O)
    : Opts(O), CS(std::move(System)),
      Demand(std::make_unique<DemandSolver>(CS)),
      Cache(Opts.CacheCapacity / 2, Opts.CacheShards),
      AliasCache(Opts.CacheCapacity - Opts.CacheCapacity / 2,
                 Opts.CacheShards) {
  resetAllowance();
}

void DemandTier::resetAllowance() {
  Allowance = Opts.AllowEscalation
                  ? AllowanceStepsPerConstraint * CS.constraints().size()
                  : 0;
  Demand->setStepAllowance(Allowance);
}

uint64_t DemandTier::stepAllowance() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Allowance;
}

uint64_t DemandTier::stepsCharged() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Demand->stepsCharged();
}

DemandTier::IdList DemandTier::materialize(const SparseBitVector &Bits) {
  std::vector<NodeId> Ids;
  for (uint32_t V : Bits)
    Ids.push_back(V);
  // SparseBitVector iterates ascending; no sort needed.
  return std::make_shared<const std::vector<NodeId>>(std::move(Ids));
}

DemandTier::IdList DemandTier::solutionPointsTo(NodeId V) {
  return std::make_shared<const std::vector<NodeId>>(
      Escalation->pointsToVector(V));
}

DemandTier::IdList DemandTier::solutionPointedBy(NodeId Obj) {
  if (!EscReverseBuilt) {
    const uint32_t N = CS.numNodes();
    EscReverse.assign(N, {});
    // Ascending scan over all nodes (class members included) keeps every
    // per-object list sorted without a sort pass.
    for (NodeId V = 0; V != N; ++V)
      for (uint32_t O : Escalation->pointsTo(V))
        EscReverse[O].push_back(V);
    EscReverseBuilt = true;
  }
  return std::make_shared<const std::vector<NodeId>>(EscReverse[Obj]);
}

Status DemandTier::escalateLocked(const Status &TripSt, bool CostCap) {
  if (Escalation)
    return Status::okStatus();
  if (!Opts.AllowEscalation)
    return TripSt;
  if (CostCap) {
    obs::count(obs::Counter::DemandCostEscalations);
    if (obs::traceEnabled())
      obs::TraceRecorder::instance().instant(
          "demand.cost_cap", "demand", "steps", Demand->stepsCharged(),
          "allowance", Allowance);
    obs::flight("demand.cost_cap", Demand->stepsCharged(), Allowance);
  }
  obs::TierSpan Tier(obs::ReqTier::Escalation);
  Tier.markHit();
  obs::TraceSpan Span("demand.escalate", "demand");
  obs::count(obs::Counter::DemandEscalations);
  SolveResult R = solvePipeline(CS, Opts.EscalationKind,
                                Opts.EscalationBudget, nullptr,
                                Opts.EscalationOpts);
  if (R.Outcome == SolveOutcome::Failed)
    return R.St;
  if (!R.Sound) {
    // Partial exhaustive state is unsound; the tier never adopts it. The
    // caller sees why no answer exists: the demand trip if there was one,
    // else the escalation's own trip.
    return TripSt.ok() ? R.St : TripSt;
  }
  Escalation = std::make_shared<PointsToSolution>(std::move(R.Solution));
  EscOutcome = R.Outcome;
  EscSt = R.St;
  // Cached demand answers are exact; a Fallback solution over-approximates.
  // Drop everything so one source answers from here on.
  Cache.clear();
  AliasCache.clear();
  return Status::okStatus();
}

template <typename DeduceFn>
Status DemandTier::deduceLocked(DeduceFn &&Deduce) {
  Status St;
  {
    obs::TierSpan Tier(obs::ReqTier::Demand);
    SolveGovernor Gov(Opts.QueryBudget);
    St = Deduce(&Gov);
    if (St.ok())
      Tier.markHit();
  }
  if (St.ok() || !St.isBudgetTrip())
    return St;
  const bool CostCap = Demand->allowanceSpent();
  Status Esc = escalateLocked(St, CostCap);
  if (Esc.ok() || !CostCap)
    return Esc;
  // No sound exhaustive solution under the escalation budget. The
  // allowance only redirects work to that solve, so lift it and deduce.
  Allowance = 0;
  Demand->setStepAllowance(0);
  return deduceLocked(Deduce);
}

Status DemandTier::escalateNow() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Escalation)
    return Status::okStatus();
  bool Saved = Opts.AllowEscalation;
  Opts.AllowEscalation = true;
  Status St = escalateLocked(Status::okStatus(), /*CostCap=*/false);
  Opts.AllowEscalation = Saved;
  return St;
}

Status DemandTier::pointsTo(NodeId V, IdList &Out) {
  if (!validNode(V))
    return Status::invalidArgument("pointsTo query for unknown node " +
                                   std::to_string(V));
  const uint64_t Key = listKey(TagPts, V);
  if (auto Hit = Cache.get(Key)) {
    obs::count(obs::Counter::ServeLruHits);
    obs::noteTierProbe(obs::ReqTier::Lru, /*Hit=*/true);
    Out = *Hit;
    return Status::okStatus();
  }
  obs::count(obs::Counter::ServeLruMisses);
  obs::noteTierProbe(obs::ReqTier::Lru, /*Hit=*/false);

  std::lock_guard<std::mutex> Lock(Mu);
  if (Escalation) {
    obs::noteTierProbe(obs::ReqTier::Escalation, /*Hit=*/true);
    Out = solutionPointsTo(V);
    Cache.put(Key, Out);
    return Status::okStatus();
  }
  SparseBitVector Bits;
  Status St = deduceLocked(
      [&](SolveGovernor *Gov) { return Demand->pointsTo(V, Gov, Bits); });
  if (!St.ok())
    return St;
  Out = Escalation ? solutionPointsTo(V) : materialize(Bits);
  Cache.put(Key, Out);
  return St;
}

Status DemandTier::alias(NodeId A, NodeId B, bool &Out) {
  if (!validNode(A) || !validNode(B))
    return Status::invalidArgument("alias query for unknown node");
  NodeId Lo = A, Hi = B;
  if (Lo > Hi)
    std::swap(Lo, Hi);
  const uint64_t Key = (uint64_t(Lo) << 32) | Hi;
  if (auto Hit = AliasCache.get(Key)) {
    obs::count(obs::Counter::ServeLruHits);
    obs::noteTierProbe(obs::ReqTier::Lru, /*Hit=*/true);
    Out = *Hit;
    return Status::okStatus();
  }
  obs::count(obs::Counter::ServeLruMisses);
  obs::noteTierProbe(obs::ReqTier::Lru, /*Hit=*/false);

  std::lock_guard<std::mutex> Lock(Mu);
  if (Escalation) {
    obs::noteTierProbe(obs::ReqTier::Escalation, /*Hit=*/true);
    Out = Escalation->mayAlias(A, B);
    AliasCache.put(Key, Out);
    return Status::okStatus();
  }
  Status St = deduceLocked(
      [&](SolveGovernor *Gov) { return Demand->alias(A, B, Gov, Out); });
  if (!St.ok())
    return St;
  if (Escalation)
    Out = Escalation->mayAlias(A, B);
  AliasCache.put(Key, Out);
  return St;
}

Status DemandTier::pointedBy(NodeId Obj, IdList &Out) {
  if (!validNode(Obj))
    return Status::invalidArgument("pointedBy query for unknown node " +
                                   std::to_string(Obj));
  const uint64_t Key = listKey(TagPointedBy, Obj);
  if (auto Hit = Cache.get(Key)) {
    obs::count(obs::Counter::ServeLruHits);
    obs::noteTierProbe(obs::ReqTier::Lru, /*Hit=*/true);
    Out = *Hit;
    return Status::okStatus();
  }
  obs::count(obs::Counter::ServeLruMisses);
  obs::noteTierProbe(obs::ReqTier::Lru, /*Hit=*/false);

  std::lock_guard<std::mutex> Lock(Mu);
  if (Escalation) {
    obs::noteTierProbe(obs::ReqTier::Escalation, /*Hit=*/true);
    Out = solutionPointedBy(Obj);
    Cache.put(Key, Out);
    return Status::okStatus();
  }
  SparseBitVector Bits;
  Status St = deduceLocked(
      [&](SolveGovernor *Gov) { return Demand->pointedBy(Obj, Gov, Bits); });
  if (!St.ok())
    return St;
  Out = Escalation ? solutionPointedBy(Obj) : materialize(Bits);
  Cache.put(Key, Out);
  return St;
}

bool DemandTier::tryMemoPointsTo(NodeId V, IdList &Out) {
  if (!validNode(V))
    return false;
  // Certified classes stay exact even after escalation (same system,
  // same least fixpoint); resolveDelta invalidates them before the
  // system changes. So the memo keeps answering for the engine tier.
  std::lock_guard<std::mutex> Lock(Mu);
  SparseBitVector Bits;
  if (!Demand->memoPointsTo(V, Bits)) {
    obs::noteTierProbe(obs::ReqTier::Memo, /*Hit=*/false);
    return false;
  }
  Out = materialize(Bits);
  return true;
}

bool DemandTier::tryMemoAlias(NodeId A, NodeId B, bool &Out) {
  if (!validNode(A) || !validNode(B))
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  bool Hit = Demand->memoAlias(A, B, Out);
  if (!Hit)
    obs::noteTierProbe(obs::ReqTier::Memo, /*Hit=*/false);
  return Hit;
}

Status DemandTier::resolveDelta(const ConstraintSystem &DeltaCS) {
  std::lock_guard<std::mutex> Lock(Mu);
  const uint32_t N = CS.numNodes();
  if (DeltaCS.numNodes() < N)
    return Status::invalidArgument(
        "delta system has fewer nodes than the served system (" +
        std::to_string(DeltaCS.numNodes()) + " < " + std::to_string(N) +
        ")");
  for (NodeId V = 0; V != N; ++V)
    if (DeltaCS.sizeOf(V) != CS.sizeOf(V) ||
        DeltaCS.isFunction(V) != CS.isFunction(V))
      return Status::invalidArgument(
          "delta node table diverges from the served system at node " +
          std::to_string(V) +
          " (deltas may only extend the id space, not remap it)");
  for (const Constraint &C : DeltaCS.constraints()) {
    if (C.Offset != 0 && C.Kind != ConstraintKind::Load &&
        C.Kind != ConstraintKind::Store)
      return Status::invalidArgument(
          "delta offset on a non-complex constraint");
    if (C.Offset > ConstraintSystem::MaxOffset)
      return Status::invalidArgument("delta offset out of range");
  }

  // Adopt new nodes head-to-head, exactly as the warm-start path does (a
  // sized head implies its interior slots, whose sizeOf reports 1).
  NodeId V = N;
  while (V < DeltaCS.numNodes()) {
    uint32_t Size = DeltaCS.sizeOf(V);
    if (DeltaCS.isFunction(V)) {
      if (Size < ConstraintSystem::FunctionParamOffset)
        return Status::invalidArgument(
            "delta declares a function node too small for its slots");
      CS.addFunction(DeltaCS.nameOf(V),
                     Size - ConstraintSystem::FunctionParamOffset);
    } else {
      CS.addNode(DeltaCS.nameOf(V), Size);
    }
    for (uint32_t I = 1; I < Size; ++I)
      CS.setName(V + I, DeltaCS.nameOf(V + I));
    V += Size;
  }
  for (const Constraint &C : DeltaCS.constraints()) {
    if (C.Dst >= CS.numNodes() || C.Src >= CS.numNodes())
      return Status::invalidArgument(
          "delta constraint references unknown node");
    CS.add(C); // Dedups against the base; genuinely new facts invalidate
               // memo entries via refresh() below.
  }

  Demand->refresh();
  resetAllowance();
  Cache.clear();
  AliasCache.clear();
  // The escalated solution (if any) no longer matches the system; the
  // demand path resumes with its warm partial state and a new allowance.
  Escalation.reset();
  EscReverse.clear();
  EscReverseBuilt = false;
  EscSt = Status::okStatus();
  EscOutcome = SolveOutcome::Precise;
  return Status::okStatus();
}

uint64_t DemandTier::memoCompleteCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Demand->memoCompleteCount();
}
