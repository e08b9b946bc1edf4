//===- Demand.cpp - Demand-tier first-answer stage ------------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Set-up parses the suite's base system. The query stream is a seeded
/// draw of targeted pointers (small answers) and dense pointers (answers
/// holding the hub set). A round asks every query of the stream on a fresh
/// tier (first-answer latency, tier construction included), then the
/// whole stream once on one tier (the session, construction included).
/// Only the demand layer works in a round.
///
/// The tier runs with its default options: its query budget is
/// unlimited, so it never escalates, and a dense query costs several
/// times a cold exhaustive solve. The stage keeps that cost visible.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workloads.h"

#include "adt/Rng.h"
#include "demand/DemandTier.h"
#include "solvers/Solve.h"

#include <algorithm>
#include <cstdio>

using namespace ag;

namespace pb {

namespace {

constexpr size_t NumTargeted = 8;
constexpr size_t NumDense = 2;
/// Answer-size classes: targeted answers have 1..MaxTargeted objects;
/// dense answers hold at least DenseShare of the largest answer.
constexpr size_t MaxTargeted = 16;
constexpr double DenseShare = 0.9;

struct StreamQuery {
  NodeId V;
  bool Dense;
};

/// Seeded stratified draw over the exhaustive solution's answer sizes,
/// interleaved in a seeded order.
std::vector<StreamQuery> buildStream(const ConstraintSystem &CS,
                                     const PointsToSolution &Sol,
                                     uint64_t Seed) {
  // Pointers: nodes some constraint writes to.
  std::vector<bool> IsPointer(CS.numNodes(), false);
  for (const Constraint &C : CS.constraints())
    if (C.Kind != ConstraintKind::Store)
      IsPointer[C.Dst] = true;
  size_t Max = 0;
  for (NodeId V = 0; V != CS.numNodes(); ++V)
    Max = std::max(Max, Sol.pointsTo(V).count());
  std::vector<NodeId> Targeted, Dense;
  for (NodeId V = 0; V != CS.numNodes(); ++V) {
    if (!IsPointer[V])
      continue;
    size_t N = Sol.pointsTo(V).count();
    if (N >= 1 && N <= MaxTargeted)
      Targeted.push_back(V);
    else if (double(N) >= DenseShare * double(Max))
      Dense.push_back(V);
  }
  Rng R(mixSeed(Seed ^ 0xd3a4d));
  std::vector<StreamQuery> Out;
  auto Draw = [&](std::vector<NodeId> &From, size_t N, bool IsDense) {
    for (size_t I = 0; I != N && !From.empty(); ++I) {
      size_t J = R.nextBelow(From.size());
      Out.push_back({From[J], IsDense});
      From[J] = From.back();
      From.pop_back();
    }
  };
  Draw(Targeted, NumTargeted, false);
  Draw(Dense, NumDense, true);
  for (size_t I = Out.size(); I > 1; --I)
    std::swap(Out[I - 1], Out[R.nextBelow(I)]);
  return Out;
}

class DemandStage final : public Stage {
public:
  explicit DemandStage(const SuiteInputs &In) : In(In) {}

  bool setUp(Tracer &T, SetupClock &Setup, RunResult &R) override {
    {
      Tracer::Scope S(T, "constraints.parse");
      Status St = ConstraintSystem::loadFromFile(In.BasePath, CS);
      if (!St.ok()) {
        R.error(St.toString());
        return false;
      }
    }
    // The benchmark's own work: the exhaustive solution picks the strata
    // and later checks every answer.
    const Clock::time_point Own0 = Clock::now();
    Exhaustive = solve(CS, SolverKind::PKHHCD, PtsRepr::Bitmap);
    Stream = buildStream(CS, Exhaustive, In.Seed);
    Setup.excludeSince(Own0);
    if (Stream.empty()) {
      R.error("no demand queries drawn");
      return false;
    }
    Ledger = std::make_unique<ReplyLedger>(1, Stream.size());
    FirstS.resize(Stream.size());
    TracedS.resize(Stream.size());
    return true;
  }

  bool round(Tracer &T, bool Traced, RunResult &R) override {
    uint64_t RoundEscalations = 0;
    for (size_t I = 0; I != Stream.size(); ++I) {
      // First answer as a new client sees it: tier construction plus the
      // query. The per-layer span times the pointsTo call alone.
      const Clock::time_point Q0 = Clock::now();
      DemandTier Tier(CS);
      {
        Tracer::Scope S(T, Stream[I].Dense ? "demand.points_to.dense"
                                           : "demand.points_to.targeted");
        answer(Tier, I, R);
        if (Traced)
          TracedS[I].push_back(S.stop());
      }
      if (!Traced)
        FirstS[I].push_back(secondsBetween(Q0, Clock::now()));
      RoundEscalations += Tier.escalated();
    }
    {
      Tracer::Scope S(T, "demand.session");
      const Clock::time_point S0 = Clock::now();
      DemandTier Session(CS);
      for (size_t I = 0; I != Stream.size(); ++I)
        answer(Session, I, R);
      if (!Traced)
        SessionS.push_back(secondsBetween(S0, Clock::now()));
      MemoComplete = Session.memoCompleteCount();
      RoundEscalations += Session.escalated();
    }
    Escalations = RoundEscalations;
    return true;
  }

  void check(RunResult &R) override {
    for (size_t I = 0; I != Stream.size(); ++I)
      if (Stream[I].Dense && !FirstS[I].empty())
        std::fprintf(stderr, "perfbench: dense node %u first answer %.4f s\n",
                     Stream[I].V, minOf(FirstS[I]));
    std::vector<std::vector<uint64_t>> Expected(1);
    for (const StreamQuery &Q : Stream) {
      std::string Text;
      for (NodeId Obj : Exhaustive.pointsToVector(Q.V))
        Text += std::to_string(Obj) + " ";
      Expected[0].push_back(fingerprint(Text));
    }
    std::string Why;
    if (uint64_t Bad = Ledger->mismatches(Expected, Why))
      R.error(std::to_string(Bad) + " wrong demand answers; first: " + Why);
  }

  void report(bool Trace, RunResult &R) const override {
    // Per query the fastest round, then the median over the class.
    auto ClassMedian = [&](const std::vector<std::vector<double>> &S,
                           bool Dense) {
      std::vector<double> V;
      for (size_t I = 0; I != Stream.size(); ++I)
        if (Stream[I].Dense == Dense && !S[I].empty())
          V.push_back(minOf(S[I]));
      return median(V);
    };
    if (!Trace) {
      // Dense answers all hold (nearly) the hub set, so the class's
      // answers of every round are pooled: the fastest dense first answer.
      std::vector<double> Dense;
      for (size_t I = 0; I != Stream.size(); ++I)
        if (Stream[I].Dense)
          Dense.insert(Dense.end(), FirstS[I].begin(), FirstS[I].end());
      R.add("demand_dense_s", minOf(Dense), "s");
      R.add("demand_session_s", minOf(SessionS), "s");
      return;
    }
    R.add("demand.pts_targeted_ms", ClassMedian(TracedS, false) * 1e3, "ms");
    R.add("demand.pts_dense_s", ClassMedian(TracedS, true), "s");
    R.addCount("demand.memo_complete", MemoComplete);
    R.addCount("demand.escalations", Escalations);
  }

private:
  void answer(DemandTier &Tier, size_t I, RunResult &R) {
    DemandTier::IdList List;
    ++R.Attempted;
    Status St = Tier.pointsTo(Stream[I].V, List);
    if (!St.ok()) {
      ++R.Failed;
      return;
    }
    std::string Text;
    for (NodeId Obj : *List)
      Text += std::to_string(Obj) + " ";
    Ledger->record(0, I, fingerprint(Text));
  }

  const SuiteInputs &In;
  ConstraintSystem CS;
  PointsToSolution Exhaustive;
  std::vector<StreamQuery> Stream;
  std::unique_ptr<ReplyLedger> Ledger;
  /// Per stream query: first-answer seconds of each untraced round, and
  /// the pointsTo call alone in each traced round.
  std::vector<std::vector<double>> FirstS, TracedS;
  std::vector<double> SessionS;
  uint64_t MemoComplete = 0, Escalations = 0;
};

} // namespace

std::unique_ptr<Stage> makeDemandStage(const SuiteInputs &In) {
  return std::make_unique<DemandStage>(In);
}

} // namespace pb
