//===- DemandSolver.h - Demand-driven points-to deduction -------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Answers pointsTo/alias/pointedBy queries over the *unsolved* constraint
/// system: instead of closing the whole graph first, a query demands only
/// the nodes its answer can depend on and runs a local fixpoint over that
/// frontier (DESIGN.md §14). The deduction rules are the Heintze-Tardieu
/// pre-transitive rules of HtSolver restricted to the demanded set:
///
///   pts(v) = orig(v) ∪ ⋃ pts(copy-pred)
///          ∪ ⋃_{v = *(b+k)} ⋃_{o ∈ pts(b)} pts(o+k)              [loads]
///          ∪ ⋃_{*(a+k) = s, v = o+k valid, o ∈ pts(a)} pts(s)    [stores]
///
/// The demanded set is closed under every rule's references (copy preds,
/// load bases and their slot expansions, store bases for the membership
/// test and store sources once membership holds), so at the local fixpoint
/// every demanded node's set equals the global least-fixpoint value — the
/// memo-completeness invariant. Converged nodes are marked Complete and
/// become constants later queries stop at; reachability walks are
/// HtSolver-style iterative Tarjan over predecessor edges, collapsing
/// cycles into the shared UnionFind as a side effect.
///
/// A per-query SolveGovernor bounds deduction, and an optional step
/// allowance shared by all queries bounds its total cost (DemandTier sets
/// it from the graph size); either trip unwinds as a structured Status.
/// Unwound state stays sound: every recorded edge and merge is a true
/// derivation, and Complete is only set at a converged fixpoint, so a
/// later (or escalated) query resumes the partial work.
///
/// Thread-compatibility: queries mutate shared memo state and must be
/// externally serialized (DemandTier holds the mutex).
///
//===----------------------------------------------------------------------===//

#ifndef AG_DEMAND_DEMANDSOLVER_H
#define AG_DEMAND_DEMANDSOLVER_H

#include "adt/SparseBitVector.h"
#include "adt/Status.h"
#include "adt/UnionFind.h"
#include "constraints/ConstraintSystem.h"
#include "core/SolveBudget.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace ag {

/// Memoized demand-driven solver over one (growing) constraint system.
/// Holds a reference to the system; the owner may append nodes and
/// constraints and must then call refresh() before the next query.
class DemandSolver {
public:
  explicit DemandSolver(const ConstraintSystem &System);

  DemandSolver(const DemandSolver &) = delete;
  DemandSolver &operator=(const DemandSolver &) = delete;

  /// Exact points-to set of \p V (bit-equal to the exhaustive solution).
  /// \p Gov may be null for unbudgeted deduction. On a budget trip the
  /// returned status is the trip; \p Out is untouched.
  Status pointsTo(NodeId V, SolveGovernor *Gov, SparseBitVector &Out);

  /// May-alias verdict: do pts(A) and pts(B) intersect?
  Status alias(NodeId A, NodeId B, SolveGovernor *Gov, bool &Out);

  /// All nodes whose points-to set contains object \p Obj, computed by a
  /// forward worklist from Obj's address-takers with demand sub-queries
  /// for the complex rules.
  Status pointedBy(NodeId Obj, SolveGovernor *Gov, SparseBitVector &Out);

  /// True if \p V's class carries a certified-complete memo entry (its
  /// next pointsTo is a pure memo read).
  bool isMemoComplete(NodeId V) const {
    return V < NumNodes && Complete[Reps.find(V)];
  }

  /// Memo-only probe: copies the certified set (counting a query and a
  /// memo hit) iff \p V's class is Complete. Never deduces.
  bool memoPointsTo(NodeId V, SparseBitVector &Out);

  /// Memo-only alias probe: answers iff both classes are Complete.
  bool memoAlias(NodeId A, NodeId B, bool &Out);

  /// Number of representative classes with certified-complete results.
  uint64_t memoCompleteCount() const;

  uint32_t numNodes() const { return NumNodes; }

  /// Caps the deduction steps charged from now on, across all queries, at
  /// \p Limit (0 lifts the cap) and restarts the count. A query that
  /// would charge a step past the cap unwinds with a step-limit Status,
  /// exactly like a governor trip.
  void setStepAllowance(uint64_t Limit) {
    StepAllowance = Limit ? Limit : UINT64_MAX;
    StepsCharged = 0;
  }
  /// Steps charged since the last setStepAllowance (or construction).
  uint64_t stepsCharged() const { return StepsCharged; }
  /// True once a query has tripped the step allowance.
  bool allowanceSpent() const { return StepsCharged > StepAllowance; }

  /// Re-reads the bound system: adopts nodes and constraints appended
  /// since construction (or the last refresh) and invalidates the memo
  /// entries the additions may affect. New AddressOf/Copy/Load facts
  /// invalidate the dependency-forward closure of their target; a new
  /// Store invalidates every memo entry (any slot's membership test may
  /// newly pass). Points-to state is kept — it is a sound
  /// under-approximation that re-certification grows monotonically.
  void refresh();

private:
  struct LoadRef {
    NodeId Base;
    uint32_t Offset;
  };
  struct OffsetStore {
    NodeId Ptr; ///< a in *(a+k) = s.
    NodeId Src; ///< s.
  };
  /// All stores sharing one offset, with the inverted-expansion state
  /// that keeps the store rule off the hot path: each store's pointer
  /// closure is expanded into SlotWriters exactly once per object
  /// (Done), and demanded slots drain that index instead of scanning
  /// every store each round.
  struct StoreBucket {
    uint32_t Offset;
    std::vector<OffsetStore> Stores;
    /// Per store: objects of pts(Ptr) already expanded into SlotWriters.
    std::vector<SparseBitVector> Done;
    /// Per store: Done covers the pointer's certified (final) set, so
    /// the store can be skipped without re-deriving the closure.
    std::vector<uint8_t> DoneFull;
    /// Last fixpoint id whose demanded set contained a valid slot for
    /// this offset; only such buckets expand during that fixpoint.
    uint32_t ActiveFixpoint = 0;
    /// Ever activated: invalidateFrom must assume this bucket's writer
    /// index can be stale when one of its pointers' sets regrows.
    bool EverActive = false;
  };
  struct OffsetLoad {
    NodeId Dst;  ///< d in d = *(b+k).
    NodeId Base; ///< b.
  };
  struct SrcStore {
    NodeId Ptr; ///< a in *(a+k) = s (s implied by index).
    uint32_t Offset;
  };

  NodeId find(NodeId V) const { return Reps.find(V); }
  void growTo(uint32_t N);
  void indexConstraint(const Constraint &C, bool Invalidate);
  void invalidateFrom(NodeId Rep);
  void invalidateAll();
  /// Unites the classes of \p A and \p B; returns the work done in
  /// set elements walked (0 if already one class).
  uint64_t merge(NodeId A, NodeId B);

  /// Runs the demanded-set local fixpoint rooted at \p Root and certifies
  /// every demanded class Complete. Throws BudgetExceededError.
  void demandFixpoint(NodeId Root, SolveGovernor *Gov);
  /// Applies \p U's deduction rules once against the current caches.
  /// \returns true if an edge or demanded node was added.
  bool processNode(NodeId U, SolveGovernor *Gov);
  /// HT-style cached reachability closure of \p Root for this epoch;
  /// collapses cycles and demands every visited node.
  void tarjanQuery(NodeId Root, SolveGovernor *Gov);
  /// Expands store \p I of \p B: demands its pointer, closes it, and
  /// records slot writers for objects not yet in Done.
  void expandStore(StoreBucket &B, size_t I, SolveGovernor *Gov);
  /// Adds the not-yet-drained SlotWriters edges of slot \p W.
  /// \returns true if a new edge was recorded.
  bool drainSlotWriters(NodeId W, SolveGovernor *Gov);
  /// The closed points-to set of rep \p R, valid after tarjanQuery(R)
  /// this epoch (or forever if Complete).
  const SparseBitVector &closureOf(NodeId R) const {
    return Complete[R] ? Pts[R] : CachePts[R];
  }
  bool addDemand(NodeId Rep);
  /// Records the derived predecessor edge \p From -> \p To (pts(From)
  /// flows into To) and demands From. \returns true if new.
  bool addPredEdge(NodeId To, NodeId From, SolveGovernor *Gov);
  /// Charges \p N deduction steps: one per node visit, rule application,
  /// edge traversal or set element scanned, so the step count tracks the
  /// deduction's running time (the cost allowance relies on that).
  void chargeStep(SolveGovernor *Gov, uint64_t N = 1) {
    StepsThisQuery += N;
    if ((StepsCharged += N) > StepAllowance)
      throwAllowanceSpent();
    if (Gov)
      Gov->onStep();
  }
  [[noreturn]] void throwAllowanceSpent() const;
  /// Dst |= Src as one propagation, charged by Src's word-level size.
  void unionInto(SparseBitVector &Dst, const SparseBitVector &Src,
                 SolveGovernor *Gov) {
    chargeStep(Gov, 1 + Src.numElements());
    if (Gov)
      Gov->onPropagation();
    Dst.unionWith(Src);
  }

  const ConstraintSystem &CS;
  uint32_t NumNodes = 0;
  size_t IndexedConstraints = 0;

  mutable UnionFind Reps;

  // --- persistent per-representative state (merged on union) ---
  /// Base facts for incomplete classes (AddressOf objects plus any
  /// partial closure persisted by an unwound query); the certified full
  /// set for Complete classes.
  std::vector<SparseBitVector> Pts;
  /// Predecessor copy edges (original + derived), the direction the
  /// reachability walks traverse.
  std::vector<SparseBitVector> Preds;
  /// Forward copy edges (original + derived) — pointedBy's walk
  /// direction and half the invalidation graph.
  std::vector<SparseBitVector> Fwd;
  /// Dependency edges base -> dependent recorded when a load/store rule
  /// read pts(base); the other half of the invalidation graph.
  std::vector<SparseBitVector> BaseDeps;
  /// Loads with a destination in this class.
  std::vector<std::vector<LoadRef>> Loads;
  /// Original members of this class (slot candidacies are per original
  /// node id; merging never loses them).
  std::vector<std::vector<NodeId>> Members;
  std::vector<uint8_t> Complete;

  // --- constraint indexes over original node ids ---
  /// Stores bucketed by offset, with inverted-expansion state: a
  /// demanded slot w walks only the offsets that actually occur, and an
  /// activated bucket expands each pointer closure once per object.
  std::vector<StoreBucket> StoreBuckets;
  /// Slot w -> sources s of stores proven to write w (o = w-k ∈ pts(a)
  /// held during some expansion). Persistent, append-only; entries past
  /// SlotDrained[w] are not yet edges.
  std::vector<std::vector<NodeId>> SlotWriters;
  /// Per slot: drained prefix of SlotWriters (edges already recorded).
  std::vector<uint32_t> SlotDrained;
  /// Loads bucketed by offset (pointedBy's slot-pull rule).
  std::vector<std::pair<uint32_t, std::vector<OffsetLoad>>> LoadsByOff;
  /// Stores indexed by source node (pointedBy's source rule).
  std::vector<std::vector<SrcStore>> StoresBySrc;
  /// AddressOf takers per object (pointedBy's seeds).
  std::vector<std::vector<NodeId>> AddrTakers;
  /// Every AddressOf source. Points-to sets are seeded exclusively from
  /// AddressOf constraints and only unioned after that, so membership
  /// tests o ∈ pts(a) can pass only for o in this set — which lets the
  /// store/load slot rules skip members w where w-k was never
  /// address-taken without demanding the store pointer at all. This is
  /// what keeps the demanded set proportional to the query instead of
  /// every store pointer's backward closure.
  SparseBitVector AddrTaken;

  // --- per-epoch reachability caches (HtSolver's discipline) ---
  std::vector<SparseBitVector> CachePts;
  std::vector<uint32_t> CacheEpoch;
  std::vector<uint32_t> VisitEpoch;
  std::vector<uint32_t> DfsNum;
  std::vector<uint32_t> LowLink;
  std::vector<uint32_t> OnStackEpoch;
  uint32_t Epoch = 0;
  uint32_t NextDfsNum = 0;

  // --- per-fixpoint demanded set ---
  std::vector<NodeId> DemandList;
  SparseBitVector InDemand;
  /// Valid slots among demanded members this fixpoint (drain targets).
  std::vector<NodeId> DemandedSlotList;
  SparseBitVector DemandedSlots;
  uint32_t FixpointId = 0;

  uint64_t StepsThisQuery = 0;
  uint64_t StepsCharged = 0;
  uint64_t StepAllowance = UINT64_MAX;
};

} // namespace ag

#endif // AG_DEMAND_DEMANDSOLVER_H
