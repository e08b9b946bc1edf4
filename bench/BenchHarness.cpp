//===- BenchHarness.cpp - Shared benchmark plumbing -----------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "adt/ElementArena.h"
#include "adt/InternTable.h"
#include "adt/MemTracker.h"
#include "obs/MetricsRegistry.h"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace ag;
using namespace ag::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Strictly parses a finite positive decimal; rejects trailing junk.
double parseScaleOrExit(const char *Text, const char *Source) {
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || errno == ERANGE || !std::isfinite(V) ||
      V <= 0) {
    std::fprintf(stderr, "error: bad scale '%s' from %s (expected a "
                         "positive number)\n",
                 Text, Source);
    std::exit(2);
  }
  return V;
}

} // namespace

double ag::bench::scaleFromArgs(int Argc, char **Argv, double Default) {
  if (Argc > 1)
    return parseScaleOrExit(Argv[1], "the command line");
  if (const char *Env = std::getenv("AG_BENCH_SCALE"))
    return parseScaleOrExit(Env, "AG_BENCH_SCALE");
  return Default;
}

std::vector<Suite> ag::bench::loadSuites(double Scale) {
  std::vector<Suite> Out;
  for (const BenchmarkSpec &Spec : paperSuites(Scale)) {
    Suite S;
    S.Name = Spec.Name;
    ConstraintSystem Raw = generateBenchmark(Spec);
    S.RawConstraints = Raw.constraints().size();

    auto T0 = std::chrono::steady_clock::now();
    OvsResult Ovs = runOfflineVariableSubstitution(Raw);
    S.OvsSeconds = secondsSince(T0);
    S.Reduced = std::move(Ovs.Reduced);
    S.Rep = std::move(Ovs.Rep);

    auto T1 = std::chrono::steady_clock::now();
    S.Hcd = runHcdOffline(S.Reduced);
    S.HcdOfflineSeconds = secondsSince(T1);

    S.NumBase = S.Reduced.countKind(ConstraintKind::AddressOf);
    S.NumSimple = S.Reduced.countKind(ConstraintKind::Copy);
    S.NumComplex = S.Reduced.countKind(ConstraintKind::Load) +
                   S.Reduced.countKind(ConstraintKind::Store);
    Out.push_back(std::move(S));
  }
  return Out;
}

RunResult ag::bench::runSolver(const Suite &S, SolverKind Kind,
                               PtsRepr Repr) {
  return runSolver(S, Kind, Repr, SolverOptions());
}

RunResult ag::bench::runSolver(const Suite &S, SolverKind Kind, PtsRepr Repr,
                               const SolverOptions &Opts,
                               bool CaptureMetrics) {
  RunResult R;
  bool MetricsWereOn = obs::metricsEnabled();
  if (CaptureMetrics) {
    obs::MetricsRegistry::instance().reset();
    obs::setMetricsEnabled(true);
  }
  MemTracker::instance().resetPeaks();
  ArenaStats::instance().resetPeaks();
  InternStats::instance().reset();
  uint64_t BitmapBase =
      MemTracker::instance().currentBytes(MemCategory::Bitmap);
  uint64_t BddBase =
      MemTracker::instance().currentBytes(MemCategory::BddTable);

  auto T0 = std::chrono::steady_clock::now();
  PointsToSolution Sol =
      solve(S.Reduced, Kind, Repr, &R.Stats, Opts, &S.Rep,
            usesHcd(Kind) ? &S.Hcd : nullptr);
  R.Seconds = secondsSince(T0);

  R.PeakBitmapBytes =
      MemTracker::instance().peakBytes(MemCategory::Bitmap) - BitmapBase;
  R.PeakBddBytes =
      MemTracker::instance().peakBytes(MemCategory::BddTable) - BddBase;
  R.SolutionHash = Sol.hash();
  R.TotalPtsSize = Sol.totalPointsToSize();
  R.ArenaPeakBytes = ArenaStats::instance().peakReservedBytes();
  R.ArenaPeakSlabs = ArenaStats::instance().peakSlabs();
  R.InternedHits = InternStats::instance().hits();
  R.InternedMisses = InternStats::instance().misses();
  PointsToSolution::SharingSummary Sh = Sol.sharingSummary();
  R.PhysicalSetBytes = Sh.PhysicalBytes;
  R.RoutedSetBytes = Sh.RoutedBytes;
  if (CaptureMetrics) {
    R.MetricsJson =
        obs::MetricsRegistry::instance().renderJson(/*Compact=*/true);
    obs::setMetricsEnabled(MetricsWereOn);
  }
  return R;
}

void ag::bench::printHeader(const char *Experiment, const char *PaperRef,
                            double Scale) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s\n", Experiment);
  std::printf("reproduces: %s (Hardekopf & Lin, PLDI 2007)\n", PaperRef);
  std::printf("workload scale: %.2f (1.0 ~ paper sizes / 8); single run "
              "per cell\n",
              Scale);
  std::printf("==============================================================="
              "=\n");
}
