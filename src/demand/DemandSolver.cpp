//===- DemandSolver.cpp - Demand-driven points-to deduction ---------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "demand/DemandSolver.h"

#include "obs/MetricsRegistry.h"
#include "obs/TraceRecorder.h"

#include <cassert>

using namespace ag;

namespace {

/// Appends to (creating on first use) the bucket for \p Offset. Offsets in
/// real workloads are few (function slots), so a linear scan beats a map.
template <typename Entry>
std::vector<Entry> &
bucketFor(std::vector<std::pair<uint32_t, std::vector<Entry>>> &Buckets,
          uint32_t Offset) {
  for (auto &B : Buckets)
    if (B.first == Offset)
      return B.second;
  Buckets.emplace_back(Offset, std::vector<Entry>());
  return Buckets.back().second;
}

} // namespace

DemandSolver::DemandSolver(const ConstraintSystem &System) : CS(System) {
  growTo(CS.numNodes());
  for (const Constraint &C : CS.constraints())
    indexConstraint(C, /*Invalidate=*/false);
  IndexedConstraints = CS.constraints().size();
}

void DemandSolver::growTo(uint32_t N) {
  if (N <= NumNodes)
    return;
  Reps.grow(N);
  Pts.resize(N);
  Preds.resize(N);
  Fwd.resize(N);
  BaseDeps.resize(N);
  Loads.resize(N);
  Members.resize(N);
  for (uint32_t V = NumNodes; V != N; ++V)
    Members[V].push_back(V);
  Complete.resize(N, 0);
  StoresBySrc.resize(N);
  AddrTakers.resize(N);
  SlotWriters.resize(N);
  SlotDrained.resize(N, 0);
  CachePts.resize(N);
  CacheEpoch.resize(N, 0);
  VisitEpoch.resize(N, 0);
  DfsNum.resize(N, 0);
  LowLink.resize(N, 0);
  OnStackEpoch.resize(N, 0);
  NumNodes = N;
}

void DemandSolver::indexConstraint(const Constraint &C, bool Invalidate) {
  switch (C.Kind) {
  case ConstraintKind::AddressOf: {
    NodeId D = find(C.Dst);
    bool New = Pts[D].set(C.Src);
    AddrTakers[C.Src].push_back(C.Dst);
    bool NewObj = AddrTaken.set(C.Src);
    if (Invalidate) {
      // A brand-new object identity can unlock store/load slot rules the
      // AddrTaken pruning skipped everywhere, with no dependency edges
      // recorded to route a targeted invalidation — drop everything.
      if (NewObj)
        invalidateAll();
      else if (New)
        invalidateFrom(D);
    }
    break;
  }
  case ConstraintKind::Copy: {
    NodeId D = find(C.Dst);
    NodeId S = find(C.Src);
    bool New = D != S && Preds[D].set(S);
    if (D != S)
      Fwd[S].set(D);
    if (Invalidate && New)
      invalidateFrom(D);
    break;
  }
  case ConstraintKind::Load: {
    NodeId D = find(C.Dst);
    Loads[D].push_back({C.Src, C.Offset});
    bucketFor(LoadsByOff, C.Offset).push_back({C.Dst, C.Src});
    // A new load grows only its destination (and downstream).
    if (Invalidate)
      invalidateFrom(D);
    break;
  }
  case ConstraintKind::Store: {
    StoreBucket *Bucket = nullptr;
    for (StoreBucket &B : StoreBuckets)
      if (B.Offset == C.Offset) {
        Bucket = &B;
        break;
      }
    if (!Bucket) {
      StoreBuckets.emplace_back();
      Bucket = &StoreBuckets.back();
      Bucket->Offset = C.Offset;
    }
    Bucket->Stores.push_back({C.Dst, C.Src});
    Bucket->Done.emplace_back();
    Bucket->DoneFull.push_back(0);
    StoresBySrc[C.Src].push_back({C.Dst, C.Offset});
    // A new store can feed any slot whose membership test passes against
    // pts of the store's pointer — which slots is unknown without solving,
    // so conservatively drop every certificate (DESIGN.md §14).
    if (Invalidate)
      invalidateAll();
    break;
  }
  }
}

void DemandSolver::refresh() {
  growTo(CS.numNodes());
  const std::vector<Constraint> &Cons = CS.constraints();
  for (size_t I = IndexedConstraints; I < Cons.size(); ++I)
    indexConstraint(Cons[I], /*Invalidate=*/true);
  IndexedConstraints = Cons.size();
}

void DemandSolver::invalidateFrom(NodeId R) {
  // Everything whose value can observe R's growth: the forward copy
  // closure plus the recorded load/store base dependencies. The walk
  // continues through already-incomplete nodes — their downstream may
  // still hold certificates from an earlier fixpoint.
  std::vector<NodeId> Stack{find(R)};
  SparseBitVector Seen;
  uint64_t Cleared = 0;
  while (!Stack.empty()) {
    NodeId U = find(Stack.back());
    Stack.pop_back();
    if (!Seen.set(U))
      continue;
    if (Complete[U]) {
      Complete[U] = 0;
      ++Cleared;
    }
    for (uint32_t V : Fwd[U])
      Stack.push_back(V);
    for (uint32_t V : BaseDeps[U])
      Stack.push_back(V);
  }
  if (Cleared)
    obs::count(obs::Counter::DemandInvalidations, Cleared);
  // If the growth can reach an expanded store pointer, SlotWriters may be
  // missing edges into slots whose certificates this walk cannot name
  // (the failed membership tests were never recorded) — drop everything.
  for (const StoreBucket &B : StoreBuckets) {
    if (!B.EverActive)
      continue;
    for (const OffsetStore &St : B.Stores)
      if (Seen.test(find(St.Ptr))) {
        invalidateAll();
        return;
      }
  }
}

void DemandSolver::invalidateAll() {
  uint64_t Cleared = 0;
  for (uint32_t V = 0; V != NumNodes; ++V) {
    Cleared += Complete[V];
    Complete[V] = 0;
  }
  // DoneFull certified that Done covers a pointer's final set; with the
  // certificates gone the sets may regrow, so expansions must re-run
  // (Done still dedups the objects already indexed).
  for (StoreBucket &B : StoreBuckets)
    std::fill(B.DoneFull.begin(), B.DoneFull.end(), 0);
  if (Cleared)
    obs::count(obs::Counter::DemandInvalidations, Cleared);
}

uint64_t DemandSolver::merge(NodeId A, NodeId B) {
  A = find(A);
  B = find(B);
  if (A == B)
    return 0;
  NodeId S = Reps.unite(A, B);
  NodeId L = S == A ? B : A;
  // Each union below walks both sides' element lists.
  const uint64_t Work = 1 + Pts[S].numElements() + Pts[L].numElements() +
                        Preds[S].numElements() + Preds[L].numElements() +
                        Fwd[S].numElements() + Fwd[L].numElements() +
                        BaseDeps[S].numElements() +
                        BaseDeps[L].numElements() + Members[L].size();
  Pts[S].unionWith(Pts[L]);
  Pts[L].clear();
  Preds[S].unionWith(Preds[L]);
  Preds[L].clear();
  Fwd[S].unionWith(Fwd[L]);
  Fwd[L].clear();
  BaseDeps[S].unionWith(BaseDeps[L]);
  BaseDeps[L].clear();
  if (!Loads[L].empty()) {
    Loads[S].insert(Loads[S].end(), Loads[L].begin(), Loads[L].end());
    std::vector<LoadRef>().swap(Loads[L]);
  }
  Members[S].insert(Members[S].end(), Members[L].begin(), Members[L].end());
  std::vector<NodeId>().swap(Members[L]);
  // Merges happen only inside Tarjan folds, whose stacks never hold a
  // certified class.
  assert(!Complete[A] && !Complete[B] && "merge of a certified class");
  return Work;
}

bool DemandSolver::addDemand(NodeId Rep) {
  Rep = find(Rep);
  if (!InDemand.set(Rep))
    return false;
  DemandList.push_back(Rep);
  return true;
}

bool DemandSolver::addPredEdge(NodeId To, NodeId From, SolveGovernor *Gov) {
  To = find(To);
  NodeId F = find(From);
  if (F == To)
    return false;
  if (!Preds[To].set(F))
    return false;
  Fwd[F].set(To);
  if (!Complete[F])
    addDemand(F);
  if (Gov)
    Gov->onEdgeAdded();
  return true;
}

void DemandSolver::tarjanQuery(NodeId Root, SolveGovernor *Gov) {
  Root = find(Root);
  if (Complete[Root] || CacheEpoch[Root] == Epoch)
    return;

  // The iterative Tarjan of HtSolver::query over predecessor edges, with
  // two demand twists: certified classes are constants the walk stops at,
  // and every visited node joins the demanded set.
  struct Frame {
    NodeId U;
    SparseBitVector::iterator It;
    SparseBitVector::iterator End;
    NodeId PendingChild;
  };
  std::vector<Frame> Dfs;
  std::vector<NodeId> SccStack;

  auto push = [&](NodeId U) {
    VisitEpoch[U] = Epoch;
    DfsNum[U] = NextDfsNum++;
    LowLink[U] = DfsNum[U];
    OnStackEpoch[U] = Epoch;
    SccStack.push_back(U);
    CachePts[U] = Pts[U];
    Dfs.push_back(Frame{U, Preds[U].begin(), Preds[U].end(), InvalidNode});
    addDemand(U);
    chargeStep(Gov);
  };
  push(Root);

  while (!Dfs.empty()) {
    Frame &F = Dfs.back();
    NodeId U = F.U;
    if (F.PendingChild != InvalidNode) {
      NodeId C = find(F.PendingChild);
      F.PendingChild = InvalidNode;
      if (CacheEpoch[C] == Epoch && C != U)
        unionInto(CachePts[U], CachePts[C], Gov);
    }
    if (F.It != F.End) {
      NodeId P = find(*F.It);
      ++F.It;
      if (P == U)
        continue;
      if (Complete[P]) {
        unionInto(CachePts[U], Pts[P], Gov);
        continue;
      }
      if (CacheEpoch[P] == Epoch) {
        unionInto(CachePts[U], CachePts[P], Gov);
        continue;
      }
      if (VisitEpoch[P] == Epoch) {
        assert(OnStackEpoch[P] == Epoch &&
               "finished node must have a valid cache");
        if (DfsNum[P] < LowLink[U])
          LowLink[U] = DfsNum[P];
        continue;
      }
      push(P);
      continue;
    }
    Dfs.pop_back();
    if (!Dfs.empty()) {
      Frame &Parent = Dfs.back();
      if (LowLink[U] < LowLink[Parent.U])
        LowLink[Parent.U] = LowLink[U];
      Parent.PendingChild = U;
    }
    if (LowLink[U] == DfsNum[U]) {
      // U roots an SCC: fold member caches and collapse through the
      // shared union-find (the side-effect cycle detection of HT). The
      // fold is charged once it is whole, so a trip never splits it.
      uint64_t FoldWork = 0;
      for (;;) {
        NodeId W = SccStack.back();
        SccStack.pop_back();
        OnStackEpoch[W] = 0;
        if (W == U)
          break;
        FoldWork += CachePts[U].numElements() + CachePts[W].numElements();
        CachePts[U].unionWith(CachePts[W]);
        CachePts[W].clear();
        FoldWork += merge(U, W);
      }
      NodeId R = find(U);
      if (R != U) {
        CachePts[R] = std::move(CachePts[U]);
        CachePts[U] = SparseBitVector();
      }
      CacheEpoch[R] = Epoch;
      VisitEpoch[R] = Epoch;
      OnStackEpoch[R] = 0;
      if (FoldWork)
        chargeStep(Gov, FoldWork);
    }
  }
}

bool DemandSolver::processNode(NodeId U, SolveGovernor *Gov) {
  bool Changed = false;
  chargeStep(Gov);
  tarjanQuery(U, Gov);

  // Loads with a destination in this class: every object in the base's
  // closure opens a predecessor edge from its slot. Snapshot the list —
  // a base's tarjanQuery below may merge another class (and its loads)
  // into U mid-iteration; the merged-in loads run when that class's
  // entry is processed this round.
  NodeId UR = find(U);
  std::vector<LoadRef> LoadSnap = Loads[UR];
  for (const LoadRef &L : LoadSnap) {
    chargeStep(Gov);
    NodeId B = find(L.Base);
    if (!Complete[B]) {
      addDemand(B);
      tarjanQuery(B, Gov);
      B = find(B);
    }
    BaseDeps[B].set(find(UR));
    uint64_t Scanned = 0;
    for (uint32_t O : closureOf(B)) {
      ++Scanned;
      NodeId T = CS.offsetTarget(O, L.Offset);
      if (T != InvalidNode && addPredEdge(UR, T, Gov))
        Changed = true;
    }
    chargeStep(Gov, Scanned);
  }

  // Stores whose slot may be a member of this class: for member w and
  // store *(a+k) = s, w receives pts(s) iff the object o = w-k is valid
  // and o ∈ pts(a). Membership is answered by the inverted SlotWriters
  // index: here the member only activates its offset bucket and joins
  // the drain list; the round body expands pointers and drains writers.
  UR = find(UR);
  std::vector<NodeId> MemberSnap = Members[UR];
  for (NodeId W : MemberSnap) {
    for (StoreBucket &B : StoreBuckets) {
      uint32_t K = B.Offset;
      if (K > W)
        continue;
      NodeId O = W - K;
      if (!AddrTaken.test(O) || CS.offsetTarget(O, K) != W)
        continue;
      if (B.ActiveFixpoint != FixpointId) {
        B.ActiveFixpoint = FixpointId;
        B.EverActive = true;
      }
      if (DemandedSlots.set(W))
        DemandedSlotList.push_back(W);
    }
  }
  chargeStep(Gov, MemberSnap.size());
  return Changed;
}

void DemandSolver::expandStore(StoreBucket &B, size_t I, SolveGovernor *Gov) {
  const OffsetStore &St = B.Stores[I];
  NodeId A = find(St.Ptr);
  bool Certified = Complete[A] != 0;
  if (Certified && B.DoneFull[I])
    return;
  chargeStep(Gov);
  if (!Certified) {
    addDemand(A);
    tarjanQuery(A, Gov);
    A = find(A);
    Certified = Complete[A] != 0;
  }
  SparseBitVector &Done = B.Done[I];
  uint64_t Scanned = 0;
  for (uint32_t O : closureOf(A)) {
    ++Scanned;
    if (!Done.set(O))
      continue;
    NodeId T = CS.offsetTarget(O, B.Offset);
    if (T != InvalidNode)
      SlotWriters[T].push_back(St.Src);
  }
  if (Certified)
    B.DoneFull[I] = 1;
  chargeStep(Gov, Scanned);
}

bool DemandSolver::drainSlotWriters(NodeId W, SolveGovernor *Gov) {
  std::vector<NodeId> &Writers = SlotWriters[W];
  uint32_t &Cursor = SlotDrained[W];
  bool Added = false;
  while (Cursor != Writers.size()) {
    chargeStep(Gov);
    if (addPredEdge(W, Writers[Cursor], Gov))
      Added = true;
    ++Cursor;
  }
  return Added;
}

void DemandSolver::demandFixpoint(NodeId Root, SolveGovernor *Gov) {
  DemandList.clear();
  InDemand.clear();
  DemandedSlotList.clear();
  DemandedSlots.clear();
  ++FixpointId;
  addDemand(find(Root));

  // Rounds with fresh query epochs until no rule adds an edge (HT's
  // "unavoidable redundant work", bounded by the demanded frontier
  // instead of the whole graph). The demanded list grows during the
  // loop; additions are processed within the same round, and the
  // store rule runs inverted after it: activated buckets expand each
  // pointer's closure growth into SlotWriters, then the demanded slots
  // drain their writer lists into predecessor edges.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++Epoch;
    NextDfsNum = 0;
    for (size_t I = 0; I != DemandList.size(); ++I) {
      NodeId U = DemandList[I];
      if (find(U) != U || Complete[U])
        continue;
      Changed |= processNode(U, Gov);
    }
    // Everything on DemandList so far was processed by the loop above
    // (it re-reads the size). The expansion below can demand store
    // pointers without recording a writer yet — their rules have not
    // run, so growth past this mark is progress even with no new edge.
    size_t Processed = DemandList.size();
    for (StoreBucket &B : StoreBuckets) {
      if (B.ActiveFixpoint != FixpointId)
        continue;
      for (size_t I = 0; I != B.Stores.size(); ++I)
        expandStore(B, I, Gov);
    }
    for (NodeId W : DemandedSlotList)
      Changed |= drainSlotWriters(W, Gov);
    if (DemandList.size() != Processed)
      Changed = true;
  }

  // Certification: the final round recomputed every closure against the
  // final edge set and changed nothing, so its epoch caches already hold
  // exact values. Every demanded contributor is itself demanded (the
  // rules close the set), so each class's result equals the global least
  // fixpoint — persist it and certify.
  for (size_t I = 0; I != DemandList.size(); ++I) {
    NodeId U = find(DemandList[I]);
    if (Complete[U])
      continue;
    assert(CacheEpoch[U] == Epoch && "certification closure missing");
    Pts[U] = CachePts[U];
    Complete[U] = 1;
  }
  obs::observe(obs::Hist::DemandFrontier, DemandList.size());
}

uint64_t DemandSolver::memoCompleteCount() const {
  uint64_t N = 0;
  for (uint32_t V = 0; V != NumNodes; ++V)
    N += (Complete[V] && Reps.find(V) == V);
  return N;
}

bool DemandSolver::memoPointsTo(NodeId V, SparseBitVector &Out) {
  if (V >= NumNodes)
    return false;
  NodeId R = find(V);
  if (!Complete[R])
    return false;
  obs::count(obs::Counter::DemandQueries);
  obs::count(obs::Counter::DemandMemoHits);
  Out = Pts[R];
  return true;
}

bool DemandSolver::memoAlias(NodeId A, NodeId B, bool &Out) {
  if (A >= NumNodes || B >= NumNodes)
    return false;
  NodeId RA = find(A), RB = find(B);
  if (!Complete[RA] || !Complete[RB])
    return false;
  obs::count(obs::Counter::DemandQueries);
  obs::count(obs::Counter::DemandMemoHits);
  Out = Pts[RA].intersects(Pts[RB]);
  return true;
}

void DemandSolver::throwAllowanceSpent() const {
  throw BudgetExceededError(Status::stepLimit(
      "demand step allowance of " + std::to_string(StepAllowance) +
      " spent"));
}

Status DemandSolver::pointsTo(NodeId V, SolveGovernor *Gov,
                              SparseBitVector &Out) {
  if (V >= NumNodes)
    return Status::invalidArgument("pointsTo query for unknown node " +
                                   std::to_string(V));
  obs::TraceSpan Span("demand.points_to", "demand");
  obs::count(obs::Counter::DemandQueries);
  NodeId R = find(V);
  if (Complete[R]) {
    obs::count(obs::Counter::DemandMemoHits);
    Out = Pts[R];
    return Status::okStatus();
  }
  obs::count(obs::Counter::DemandMemoMisses);
  StepsThisQuery = 0;
  Status St = Status::okStatus();
  try {
    demandFixpoint(R, Gov);
    Out = Pts[find(V)];
  } catch (BudgetExceededError &E) {
    St = E.status();
  }
  obs::count(obs::Counter::DemandSteps, StepsThisQuery);
  return St;
}

Status DemandSolver::alias(NodeId A, NodeId B, SolveGovernor *Gov,
                           bool &Out) {
  if (A >= NumNodes || B >= NumNodes)
    return Status::invalidArgument("alias query for unknown node");
  obs::TraceSpan Span("demand.alias", "demand");
  obs::count(obs::Counter::DemandQueries);
  if (Complete[find(A)] && Complete[find(B)]) {
    obs::count(obs::Counter::DemandMemoHits);
    Out = Pts[find(A)].intersects(Pts[find(B)]);
    return Status::okStatus();
  }
  obs::count(obs::Counter::DemandMemoMisses);
  StepsThisQuery = 0;
  Status St = Status::okStatus();
  try {
    if (!Complete[find(A)])
      demandFixpoint(find(A), Gov);
    if (!Complete[find(B)])
      demandFixpoint(find(B), Gov);
    Out = Pts[find(A)].intersects(Pts[find(B)]);
  } catch (BudgetExceededError &E) {
    St = E.status();
  }
  obs::count(obs::Counter::DemandSteps, StepsThisQuery);
  return St;
}

Status DemandSolver::pointedBy(NodeId Obj, SolveGovernor *Gov,
                               SparseBitVector &Out) {
  if (Obj >= NumNodes)
    return Status::invalidArgument("pointedBy query for unknown node " +
                                   std::to_string(Obj));
  obs::TraceSpan Span("demand.pointed_by", "demand");
  obs::count(obs::Counter::DemandQueries);
  obs::count(obs::Counter::DemandMemoMisses);
  StepsThisQuery = 0;
  Status St = Status::okStatus();

  // Certifies pts(V)'s class and returns its representative.
  auto EnsureComplete = [&](NodeId V) {
    NodeId R = find(V);
    if (!Complete[R])
      demandFixpoint(R, Gov);
    return find(V);
  };

  try {
    // Forward worklist over "class contains Obj": seeded at the
    // address-takers, closed under forward copy flow and the complex
    // rules (answered with certified demand sub-queries). This computes
    // the least fixpoint of the same containment rules the exhaustive
    // solution satisfies, so the result is bit-equal to scanning it.
    SparseBitVector S;    // reps whose class's set contains Obj
    SparseBitVector Done; // reps already expanded
    std::vector<NodeId> WL;
    auto Add = [&](NodeId V) {
      NodeId R = find(V);
      if (S.set(R))
        WL.push_back(R);
    };
    for (NodeId A : AddrTakers[Obj])
      Add(A);

    while (!WL.empty()) {
      NodeId U = find(WL.back());
      WL.pop_back();
      if (!Done.set(U))
        continue;
      chargeStep(Gov);

      // 1. Forward copy flow (original + derived edges). Safe to iterate
      // in place: Add() only touches S/WL.
      for (uint32_t W : Fwd[U])
        Add(W);

      // Sub-queries below can merge classes and grow Members[U]; late
      // joiners are cycle members with identical sets, reached through
      // the copy closure, so a snapshot loses nothing.
      std::vector<NodeId> MemberSnap = Members[U];

      // 2. Loads pulling from a slot of this class: d = *(b+k) receives
      // Obj if some member w = o+k with o ∈ pts(b).
      for (NodeId W : MemberSnap) {
        for (const auto &Bucket : LoadsByOff) {
          uint32_t K = Bucket.first;
          if (K > W)
            continue;
          NodeId O = W - K;
          if (!AddrTaken.test(O) || CS.offsetTarget(O, K) != W)
            continue;
          for (const OffsetLoad &L : Bucket.second) {
            chargeStep(Gov);
            NodeId B = EnsureComplete(L.Base);
            if (Pts[B].test(O))
              Add(L.Dst);
          }
        }
      }

      // 3. Stores with a member as source: *(a+k) = s forwards Obj into
      // every valid slot o+k for o ∈ pts(a).
      for (NodeId W : MemberSnap) {
        for (const SrcStore &St2 : StoresBySrc[W]) {
          chargeStep(Gov);
          NodeId A = EnsureComplete(St2.Ptr);
          for (uint32_t O : Pts[A]) {
            NodeId T = CS.offsetTarget(O, St2.Offset);
            if (T != InvalidNode)
              Add(T);
          }
          chargeStep(Gov, Pts[A].count());
        }
      }
    }

    // Expand classes to original node ids.
    Out.clear();
    for (uint32_t R : S)
      for (NodeId W : Members[find(R)])
        Out.set(W);
  } catch (BudgetExceededError &E) {
    St = E.status();
  }
  obs::count(obs::Counter::DemandSteps, StepsThisQuery);
  return St;
}
