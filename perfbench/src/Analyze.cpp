//===- Analyze.cpp - Cold whole-program analysis stage --------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One pass runs the whole pipeline over the suite's base system with one
/// solver kind: `.cons` file parse, offline variable substitution, the
/// HCD offline pass, the solve, the solution hash and total size, and the
/// snapshot bytes. A round is one LCD+HCD pass and one PKH+HCD pass; the
/// two kinds share every step except online cycle detection.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workloads.h"

#include "adt/ElementArena.h"
#include "adt/InternTable.h"
#include "constraints/OfflineVariableSubstitution.h"
#include "core/HcdOffline.h"
#include "serve/Snapshot.h"
#include "solvers/Solve.h"

#include <algorithm>
#include <cstdio>

using namespace ag;

namespace pb {

namespace {

/// Passes of each kind per round, alternating kinds: the solver passes
/// are the shortest operations of a round, so they get more samples.
constexpr size_t PassesPerKind = 2;
/// The oracle suite: small enough for the textbook solver.
constexpr double OracleScale = 0.05;

/// What one pass leaves behind for the checks.
struct SuiteOut {
  Snapshot Snap; ///< Reduced system, OVS map and solution.
  std::string Bytes;
  uint64_t Hash = 0;
  uint64_t Size = 0;
  SolverStats Stats;
  bool Ok = false;
};

/// Per-layer seconds of one traced pass.
struct LayerTimes {
  double Parse = 0, Ovs = 0, Hcd = 0, Solve = 0, Hash = 0, Write = 0;
};

const char *solveSpanName(SolverKind K) {
  return K == SolverKind::LCDHCD ? "solvers.lcdhcd.solve"
                                 : "solvers.pkhhcd.solve";
}

/// The pipeline over one suite file. Only program calls run in here.
SuiteOut runPass(const std::string &Path, SolverKind Kind, Tracer &T,
                  LayerTimes &LT) {
  SuiteOut Out;
  Tracer::Scope Whole(T, "analyze.pass");
  ConstraintSystem CS;
  {
    Tracer::Scope S(T, "constraints.parse");
    Status St = ConstraintSystem::loadFromFile(Path, CS);
    LT.Parse += S.stop();
    if (!St.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", St.toString().c_str());
      return Out;
    }
  }
  OvsResult Ovs;
  {
    Tracer::Scope S(T, "constraints.ovs");
    Ovs = runOfflineVariableSubstitution(CS);
    LT.Ovs += S.stop();
  }
  HcdResult Hcd;
  {
    Tracer::Scope S(T, "core.hcd_offline");
    Hcd = runHcdOffline(Ovs.Reduced);
    LT.Hcd += S.stop();
  }
  {
    Tracer::Scope S(T, solveSpanName(Kind));
    Out.Snap.Solution = solve(Ovs.Reduced, Kind, PtsRepr::Bitmap, &Out.Stats,
                              SolverOptions(), &Ovs.Rep, &Hcd);
    LT.Solve += S.stop();
  }
  {
    Tracer::Scope S(T, "core.solution_hash");
    Out.Hash = Out.Snap.Solution.hash();
    Out.Size = Out.Snap.Solution.totalPointsToSize();
    LT.Hash += S.stop();
  }
  {
    Tracer::Scope S(T, "serve.snapshot_write");
    Out.Snap.CS = std::move(Ovs.Reduced);
    Out.Snap.SeedReps = std::move(Ovs.Rep);
    Out.Snap.Kind = Kind;
    Status St = writeSnapshotBytes(Out.Snap, Out.Bytes);
    LT.Write += S.stop();
    if (!St.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", St.toString().c_str());
      return Out;
    }
  }
  Out.Ok = true;
  return Out;
}


class AnalyzeStage final : public Stage {
public:
  explicit AnalyzeStage(const SuiteInputs &In) : In(In) {}

  bool setUp(Tracer &, SetupClock &, RunResult &) override { return true; }

  bool round(Tracer &T, bool Traced, RunResult &R) override {
    for (size_t Pass = 0; Pass != 2 * PassesPerKind; ++Pass) {
      const size_t K = Pass % 2;
      ArenaStats::instance().resetPeaks();
      InternStats::instance().reset();
      LayerTimes LT;
      const Clock::time_point P0 = Clock::now();
      SuiteOut Out = runPass(In.BasePath, Kinds[K], T, LT);
      if (!Traced) {
        PassS[K].push_back(secondsBetween(P0, Clock::now()));
      } else {
        Layers[K].push_back(LT);
        ArenaPeak[K] = ArenaStats::instance().peakReservedBytes();
        InternHits[K] = InternStats::instance().hits();
        InternLookups[K] =
            InternStats::instance().hits() + InternStats::instance().misses();
      }
      ++R.Attempted;
      if (!Out.Ok) {
        ++R.Failed;
        continue;
      }
      if (!Last[K].Ok)
        FirstHash[K] = Out.Hash;
      else if (FirstHash[K] != Out.Hash)
        Consistent = false;
      Last[K] = std::move(Out);
    }
    return true;
  }

  void check(RunResult &R) override {
    if (!Consistent)
      R.error("the solution hash changed between rounds");
    const SuiteOut &L = Last[0], &P = Last[1];
    if (!L.Ok || !P.Ok)
      return;
    if (L.Hash != P.Hash || L.Size != P.Size)
      R.error("LCD+HCD and PKH+HCD hashes or sizes differ");
    std::string Why;
    if (solutionMismatches(L.Snap.Solution, P.Snap.Solution, Why) != 0)
      R.error("LCD+HCD and PKH+HCD solutions differ: " + Why);
    // PKH+HCD's solution equals LCD+HCD's (above), so one closure check
    // and one read-back cover both.
    if (closureViolations(L.Snap.CS, L.Snap.Solution, Why) != 0)
      R.error("rule closure fails: " + Why);
    Snapshot Back;
    if (Status St = readSnapshotBytes(L.Bytes, Back); !St.ok())
      R.error("snapshot does not read back: " + St.toString());
    else if (solutionMismatches(Back.Solution, L.Snap.Solution, Why) != 0)
      R.error("snapshot reads back a different solution: " + Why);
    checkOracle(R);
  }

  void report(bool Trace, RunResult &R) const override {
    // A pass's fastest round: neighbouring load only ever slows a round
    // down, so the minimum is the steady statistic.
    if (!Trace) {
      R.add("analyze_lcdhcd_s", minOf(PassS[0]), "s");
      R.add("analyze_pkhhcd_s", minOf(PassS[1]), "s");
      return;
    }
    auto MedianOf = [&](size_t K, double LayerTimes::*Field) {
      std::vector<double> V;
      for (const LayerTimes &LT : Layers[K])
        V.push_back(LT.*Field);
      return median(V);
    };
    auto BothKinds = [&](double LayerTimes::*Field) {
      std::vector<double> V;
      for (size_t K = 0; K != 2; ++K)
        for (const LayerTimes &LT : Layers[K])
          V.push_back(LT.*Field);
      return median(V);
    };
    const SolverStats &Lcd = Last[0].Stats, &Pkh = Last[1].Stats;
    const uint64_t Lookups = InternLookups[0] + InternLookups[1];
    R.add("constraints.parse_s", BothKinds(&LayerTimes::Parse), "s");
    R.add("constraints.ovs_s", BothKinds(&LayerTimes::Ovs), "s");
    R.addCount("constraints.ovs_kept_constraints",
               Last[0].Snap.CS.constraints().size());
    R.add("core.hcd_offline_s", BothKinds(&LayerTimes::Hcd), "s");
    R.add("core.solution_hash_s", BothKinds(&LayerTimes::Hash), "s");
    R.add("solvers.lcdhcd.solve_s", MedianOf(0, &LayerTimes::Solve), "s");
    R.addCount("solvers.lcdhcd.propagations", Lcd.Propagations);
    R.addCount("solvers.lcdhcd.nodes_searched", Lcd.NodesSearched);
    R.addCount("solvers.lcdhcd.lcd_trigger_probes", Lcd.LcdTriggerProbes);
    R.addCount("solvers.lcdhcd.edges_added", Lcd.EdgesAdded);
    R.addCount("solvers.lcdhcd.worklist_pops", Lcd.WorklistPops);
    R.addCount("solvers.lcdhcd.diff_elements_resolved",
               Lcd.DiffElementsResolved);
    R.add("solvers.pkhhcd.solve_s", MedianOf(1, &LayerTimes::Solve), "s");
    R.addCount("solvers.pkhhcd.propagations", Pkh.Propagations);
    R.addCount("solvers.pkhhcd.nodes_searched", Pkh.NodesSearched);
    R.addCount("solvers.pkhhcd.worklist_pops", Pkh.WorklistPops);
    R.add("adt.arena_peak_bytes", double(std::max(ArenaPeak[0], ArenaPeak[1])),
          "bytes");
    R.add("adt.intern_hit_ratio",
          Lookups ? double(InternHits[0] + InternHits[1]) / double(Lookups)
                  : 0,
          "ratio");
    R.addCount("adt.intern_lookups", Lookups);
    R.add("serve.snapshot_write_s", BothKinds(&LayerTimes::Write), "s");
    R.add("serve.snapshot_bytes", double(Last[0].Bytes.size()), "bytes");
  }

private:
  /// Both kinds' pipelines against the textbook oracle on a small suite
  /// of the same shape.
  void checkOracle(RunResult &R) const {
    ConstraintSystem CS =
        generateBenchmark(suiteSpec(In.Suite, OracleScale, In.Seed));
    std::vector<std::vector<NodeId>> Oracle = andersenOracle(CS);
    for (SolverKind Kind : Kinds) {
      OvsResult Ovs = runOfflineVariableSubstitution(CS);
      HcdResult Hcd = runHcdOffline(Ovs.Reduced);
      PointsToSolution Sol = solve(Ovs.Reduced, Kind, PtsRepr::Bitmap,
                                   nullptr, SolverOptions(), &Ovs.Rep, &Hcd);
      std::string Why;
      if (oracleMismatches(Sol, Oracle, Why) != 0)
        R.error(std::string("oracle ") + solverKindName(Kind) + ": " + Why);
    }
  }

  static constexpr SolverKind Kinds[2] = {SolverKind::LCDHCD,
                                          SolverKind::PKHHCD};
  const SuiteInputs &In;
  /// Seconds per kind in untraced rounds; layer times in traced rounds.
  std::vector<double> PassS[2];
  std::vector<LayerTimes> Layers[2];
  /// Each kind's latest pass; its first hash for the consistency check.
  SuiteOut Last[2];
  uint64_t FirstHash[2] = {};
  bool Consistent = true;
  /// Per kind, from the latest traced pass.
  uint64_t ArenaPeak[2] = {}, InternHits[2] = {}, InternLookups[2] = {};
};

} // namespace

std::unique_ptr<Stage> makeAnalyzeStage(const SuiteInputs &In) {
  return std::make_unique<AnalyzeStage>(In);
}

} // namespace pb
