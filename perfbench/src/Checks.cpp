//===- Checks.cpp - The benchmark's own correctness checks ----------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "constraints/OfflineVariableSubstitution.h"
#include "core/HcdOffline.h"
#include "solvers/Solve.h"

#include <deque>
#include <unordered_set>

using namespace ag;

namespace pb {

namespace {

/// The offset rule of indirect calls: offset 0 is the object itself, a
/// positive offset must fall inside the object's slots.
NodeId derefTarget(const ConstraintSystem &CS, NodeId Obj, uint32_t Off) {
  if (Off == 0)
    return Obj;
  if (Off >= CS.sizeOf(Obj))
    return InvalidNode;
  return Obj + Off;
}

std::string describeNode(const char *What, NodeId V) {
  return std::string(What) + " at node " + std::to_string(V);
}

/// Physical-set pairs already compared: solutions share sets across
/// representatives, so most node pairs repeat one comparison.
struct PairHash {
  size_t operator()(const std::pair<const void *, const void *> &P) const {
    return std::hash<const void *>()(P.first) * 31 +
           std::hash<const void *>()(P.second);
  }
};
using PairSet =
    std::unordered_set<std::pair<const void *, const void *>, PairHash>;

} // namespace

std::vector<std::vector<NodeId>> andersenOracle(const ConstraintSystem &CS) {
  const uint32_t N = CS.numNodes();
  const size_t W = (N + 63) / 64;
  std::vector<uint64_t> Bits(size_t(N) * W, 0);
  auto Row = [&](NodeId V) { return &Bits[size_t(V) * W]; };

  struct Deref {
    NodeId Other;
    uint32_t Off;
  };
  std::vector<std::vector<Deref>> LoadsFrom(N); // a = *(b+k), keyed by b
  std::vector<std::vector<Deref>> StoresTo(N);  // *(a+k) = b, keyed by a
  std::vector<std::vector<NodeId>> Succ(N);
  std::unordered_set<uint64_t> Edges;
  std::deque<NodeId> Work;
  std::vector<bool> Queued(N, false);
  auto Push = [&](NodeId V) {
    if (!Queued[V]) {
      Queued[V] = true;
      Work.push_back(V);
    }
  };
  auto UnionInto = [&](NodeId Dst, NodeId Src) {
    uint64_t *D = Row(Dst);
    const uint64_t *S = Row(Src);
    bool Changed = false;
    for (size_t I = 0; I != W; ++I) {
      uint64_t New = D[I] | S[I];
      Changed |= New != D[I];
      D[I] = New;
    }
    return Changed;
  };
  auto AddEdge = [&](NodeId Src, NodeId Dst) {
    if (Src == Dst || !Edges.insert((uint64_t(Src) << 32) | Dst).second)
      return;
    Succ[Src].push_back(Dst);
    if (UnionInto(Dst, Src))
      Push(Dst);
  };

  for (const Constraint &C : CS.constraints()) {
    switch (C.Kind) {
    case ConstraintKind::AddressOf:
      Row(C.Dst)[C.Src / 64] |= uint64_t(1) << (C.Src % 64);
      Push(C.Dst);
      break;
    case ConstraintKind::Copy:
      break;
    case ConstraintKind::Load:
      LoadsFrom[C.Src].push_back({C.Dst, C.Offset});
      Push(C.Src);
      break;
    case ConstraintKind::Store:
      StoresTo[C.Dst].push_back({C.Src, C.Offset});
      Push(C.Dst);
      break;
    }
  }
  for (const Constraint &C : CS.constraints())
    if (C.Kind == ConstraintKind::Copy)
      AddEdge(C.Src, C.Dst);

  std::vector<NodeId> Members;
  while (!Work.empty()) {
    NodeId V = Work.front();
    Work.pop_front();
    Queued[V] = false;
    Members.clear();
    const uint64_t *R = Row(V);
    for (size_t I = 0; I != W; ++I)
      for (uint64_t Word = R[I]; Word; Word &= Word - 1)
        Members.push_back(
            static_cast<NodeId>(I * 64 + __builtin_ctzll(Word)));
    for (NodeId Obj : Members) {
      for (const Deref &L : LoadsFrom[V])
        if (NodeId T = derefTarget(CS, Obj, L.Off); T != InvalidNode)
          AddEdge(T, L.Other);
      for (const Deref &S : StoresTo[V])
        if (NodeId T = derefTarget(CS, Obj, S.Off); T != InvalidNode)
          AddEdge(S.Other, T);
    }
    for (size_t I = 0; I != Succ[V].size(); ++I)
      if (UnionInto(Succ[V][I], V))
        Push(Succ[V][I]);
  }

  std::vector<std::vector<NodeId>> Out(N);
  for (NodeId V = 0; V != N; ++V) {
    const uint64_t *R = Row(V);
    for (size_t I = 0; I != W; ++I)
      for (uint64_t Word = R[I]; Word; Word &= Word - 1)
        Out[V].push_back(static_cast<NodeId>(I * 64 + __builtin_ctzll(Word)));
  }
  return Out;
}

uint64_t oracleMismatches(const PointsToSolution &Sol,
                          const std::vector<std::vector<NodeId>> &Oracle,
                          std::string &Why) {
  if (Sol.numNodes() != Oracle.size()) {
    Why = "node count differs from the oracle";
    return 1;
  }
  uint64_t Bad = 0;
  for (NodeId V = 0; V != Sol.numNodes(); ++V) {
    if (Sol.pointsToVector(V) == Oracle[V])
      continue;
    if (Bad++ == 0)
      Why = describeNode("points-to set differs from the oracle", V);
  }
  return Bad;
}

uint64_t closureViolations(const ConstraintSystem &CS,
                           const PointsToSolution &Sol, std::string &Why) {
  if (Sol.numNodes() < CS.numNodes()) {
    Why = "solution has fewer nodes than the system";
    return 1;
  }
  // An inclusion proven once between two physical sets holds for every
  // pair of nodes backed by them.
  PairSet Proven;
  auto Includes = [&](NodeId Dst, NodeId Src) {
    const SparseBitVector &S = Sol.pointsTo(Src);
    if (S.empty())
      return true;
    const SparseBitVector &D = Sol.pointsTo(Dst);
    std::pair<const void *, const void *> Key(&D, &S);
    if (Proven.count(Key))
      return true;
    for (uint32_t Obj : S)
      if (!D.test(Obj))
        return false;
    Proven.insert(Key);
    return true;
  };

  uint64_t Bad = 0;
  auto Violated = [&](const Constraint &C) {
    if (Bad++ == 0)
      Why = std::string(constraintKindName(C.Kind)) + " " +
            std::to_string(C.Dst) + " " + std::to_string(C.Src) + " " +
            std::to_string(C.Offset) + " does not hold";
  };
  for (const Constraint &C : CS.constraints()) {
    bool Ok = true;
    switch (C.Kind) {
    case ConstraintKind::AddressOf:
      Ok = Sol.pointsTo(C.Dst).test(C.Src);
      break;
    case ConstraintKind::Copy:
      Ok = Includes(C.Dst, C.Src);
      break;
    case ConstraintKind::Load:
      for (uint32_t Obj : Sol.pointsTo(C.Src)) {
        NodeId T = derefTarget(CS, Obj, C.Offset);
        if (T != InvalidNode && !Includes(C.Dst, T)) {
          Ok = false;
          break;
        }
      }
      break;
    case ConstraintKind::Store:
      for (uint32_t Obj : Sol.pointsTo(C.Dst)) {
        NodeId T = derefTarget(CS, Obj, C.Offset);
        if (T != InvalidNode && !Includes(T, C.Src)) {
          Ok = false;
          break;
        }
      }
      break;
    }
    if (!Ok)
      Violated(C);
  }
  return Bad;
}

uint64_t solutionMismatches(const PointsToSolution &A,
                            const PointsToSolution &B, std::string &Why) {
  if (A.numNodes() != B.numNodes()) {
    Why = "node counts differ";
    return 1;
  }
  PairSet Equal;
  uint64_t Bad = 0;
  for (NodeId V = 0; V != A.numNodes(); ++V) {
    const SparseBitVector &SA = A.pointsTo(V);
    const SparseBitVector &SB = B.pointsTo(V);
    if (&SA == &SB || Equal.count({&SA, &SB}))
      continue;
    if (SA == SB)
      Equal.insert({&SA, &SB});
    else if (Bad++ == 0)
      Why = describeNode("points-to sets differ", V);
  }
  return Bad;
}

uint64_t subsetViolations(const PointsToSolution &Sub,
                          const PointsToSolution &Super, std::string &Why) {
  if (Sub.numNodes() > Super.numNodes()) {
    Why = "node counts differ";
    return 1;
  }
  PairSet Contained;
  uint64_t Bad = 0;
  for (NodeId V = 0; V != Sub.numNodes(); ++V) {
    const SparseBitVector &Small = Sub.pointsTo(V);
    const SparseBitVector &Big = Super.pointsTo(V);
    if (Contained.count({&Small, &Big}))
      continue;
    if (Big.contains(Small))
      Contained.insert({&Small, &Big});
    else if (Bad++ == 0)
      Why = describeNode("set is not a superset", V);
  }
  return Bad;
}

std::string Query::line() const {
  switch (K) {
  case Pts:
    return "pts " + std::to_string(A) + "\n";
  case Alias:
    return "alias " + std::to_string(A) + " " + std::to_string(B) + "\n";
  case PointedBy:
    return "pointedby " + std::to_string(A) + "\n";
  }
  return "\n";
}

std::string expectedReply(const PointsToSolution &Sol, const Query &Q) {
  std::string Out;
  switch (Q.K) {
  case Query::Pts:
    Out = "pts(" + std::to_string(Q.A) + "):";
    for (NodeId Obj : Sol.pointsToVector(Q.A))
      Out += " " + std::to_string(Obj);
    break;
  case Query::Alias: {
    std::vector<NodeId> PA = Sol.pointsToVector(Q.A);
    std::vector<NodeId> PB = Sol.pointsToVector(Q.B);
    bool Meet = false;
    for (size_t I = 0, J = 0; I != PA.size() && J != PB.size() && !Meet;) {
      if (PA[I] == PB[J])
        Meet = true;
      else if (PA[I] < PB[J])
        ++I;
      else
        ++J;
    }
    Out = "alias(" + std::to_string(Q.A) + "," + std::to_string(Q.B) +
          ") = " + (Meet ? "yes" : "no");
    break;
  }
  case Query::PointedBy:
    Out = "pointedby(" + std::to_string(Q.A) + "):";
    for (NodeId V = 0; V != Sol.numNodes(); ++V)
      if (Sol.pointsToObj(V, Q.A))
        Out += " " + std::to_string(V);
    break;
  }
  Out += "\n";
  return Out;
}

ReplyLedger::ReplyLedger(size_t Epochs, size_t Queries)
    : Queries(Queries), Fps(Epochs * Queries, 0), Seen(Epochs * Queries, 0) {}

void ReplyLedger::record(size_t Epoch, size_t Query, uint64_t Fingerprint) {
  size_t I = Epoch * Queries + Query;
  if (!Seen[I]) {
    Seen[I] = 1;
    Fps[I] = Fingerprint;
  } else if (Fps[I] != Fingerprint) {
    ++Inconsistent;
  }
}

uint64_t
ReplyLedger::mismatches(const std::vector<std::vector<uint64_t>> &Expected,
                        std::string &Why) const {
  uint64_t Bad = Inconsistent;
  if (Inconsistent)
    Why = "a repeated request got a different reply";
  for (size_t E = 0; E != Expected.size(); ++E)
    for (size_t Q = 0; Q != Expected[E].size(); ++Q)
      if (Seen[E * Queries + Q] && Fps[E * Queries + Q] != Expected[E][Q] &&
          Bad++ == 0)
        Why = "reply to query " + std::to_string(Q) + " in epoch " +
              std::to_string(E) + " differs from the expected answer";
  return Bad;
}

void selfTest(uint64_t Seed, RunResult &R) {
  ConstraintSystem CS = generateBenchmark(suiteSpec("emacs", 0.05, Seed));
  OvsResult Ovs = runOfflineVariableSubstitution(CS);
  PointsToSolution Sol = solve(Ovs.Reduced, SolverKind::PKHHCD,
                               PtsRepr::Bitmap, nullptr, SolverOptions(),
                               &Ovs.Rep);
  std::vector<std::vector<NodeId>> Oracle = andersenOracle(CS);
  std::string Why;
  if (oracleMismatches(Sol, Oracle, Why) != 0 ||
      closureViolations(Ovs.Reduced, Sol, Why) != 0) {
    R.error("self-test: clean solution rejected: " + Why);
    return;
  }

  // One solution element: drop the target of an address-of constraint.
  PointsToSolution Bad = Sol;
  bool Corrupted = false;
  for (const Constraint &C : Ovs.Reduced.constraints())
    if (C.Kind == ConstraintKind::AddressOf) {
      Bad.mutableSet(Bad.repOf(C.Dst)).reset(C.Src);
      Corrupted = true;
      break;
    }
  if (!Corrupted)
    R.error("self-test: no address-of constraint to corrupt");
  if (oracleMismatches(Bad, Oracle, Why) == 0)
    R.error("self-test: oracle check missed a dropped solution element");
  if (closureViolations(Ovs.Reduced, Bad, Why) == 0)
    R.error("self-test: rule-closure check missed a dropped element");
  // The solution comparisons, against a copy (no shared sets) and the
  // corrupted copy.
  const PointsToSolution Same = Sol;
  if (solutionMismatches(Same, Sol, Why) != 0 ||
      subsetViolations(Sol, Same, Why) != 0)
    R.error("self-test: clean solution copy rejected: " + Why);
  if (solutionMismatches(Sol, Bad, Why) == 0)
    R.error("self-test: solution comparison missed a dropped element");
  if (subsetViolations(Sol, Bad, Why) == 0)
    R.error("self-test: superset check missed a dropped element");

  // One reply: flip one character of a rendered pts reply.
  Query Q{Query::Pts, Ovs.Reduced.constraints().front().Dst, 0};
  std::string Good = expectedReply(Sol, Q);
  std::string Corrupt = Good;
  Corrupt[Corrupt.size() - 2] ^= 1;
  ReplyLedger Ledger(1, 1);
  Ledger.record(0, 0, fingerprint(Good));
  if (Ledger.mismatches({{fingerprint(Good)}}, Why) != 0)
    R.error("self-test: clean reply rejected: " + Why);
  ReplyLedger BadLedger(1, 1);
  BadLedger.record(0, 0, fingerprint(Corrupt));
  if (BadLedger.mismatches({{fingerprint(Good)}}, Why) == 0)
    R.error("self-test: reply check missed a corrupted reply");
}

} // namespace pb
