//===- Workload.cpp - One suite through the whole tool life cycle ---------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>

using namespace ag;

namespace pb {

namespace {

/// Share of the full system held out, cut into NumSlices resolve deltas.
constexpr double DeltaFrac = 0.04;
constexpr size_t NumSlices = 3;
/// Each workload is a suite of `ptatool gen` and the scale it is
/// generated at: a scale at which a round of all three stages, with its
/// dense demand queries, repeats 8-13 times a run.
struct WorkloadSpec {
  const char *Suite;
  double Scale;
};
constexpr WorkloadSpec Workloads[] = {{"wine", 0.2}, {"gimp", 0.5}};

const WorkloadSpec *findWorkload(const std::string &Name) {
  for (const WorkloadSpec &W : Workloads)
    if (Name == W.Suite)
      return &W;
  return nullptr;
}

/// Generates the suite exactly as `ptatool gen` does and holds out a
/// seeded share of its constraints as the resolve slices.
bool makeInputs(const RunConfig &Cfg, SuiteInputs &In, RunResult &R) {
  const WorkloadSpec &W = *findWorkload(Cfg.Workload);
  In.Suite = W.Suite;
  In.Seed = Cfg.Seed;
  In.WorkDir = Cfg.WorkDir;
  ConstraintSystem Full = generateBenchmark(paperSuite(In.Suite, W.Scale));
  DeltaSplit Split = splitDelta(Full, DeltaFrac, mixSeed(Cfg.Seed ^ 0xde17a));
  In.Base = std::move(Split.Base);
  In.Slices.assign(NumSlices, {});
  for (size_t I = 0; I != Split.Delta.size(); ++I)
    In.Slices[I * NumSlices / Split.Delta.size()].push_back(Split.Delta[I]);
  In.BasePath = Cfg.WorkDir + "/" + In.Suite + "-base.cons";
  if (!In.Base.writeToFile(In.BasePath)) {
    R.error("cannot write " + In.BasePath);
    return false;
  }
  for (size_t K = 0; K != NumSlices; ++K) {
    ConstraintSystem D = Full.cloneNodeTable();
    for (const Constraint &C : In.Slices[K])
      D.add(C);
    In.SlicePaths.push_back(Cfg.WorkDir + "/" + In.Suite + "-delta-" +
                            std::to_string(K) + ".cons");
    if (!D.writeToFile(In.SlicePaths.back())) {
      R.error("cannot write " + In.SlicePaths.back());
      return false;
    }
  }
  return true;
}

} // namespace

bool isWorkload(const std::string &Name) {
  return findWorkload(Name) != nullptr;
}

RunResult runWorkload(const RunConfig &Cfg, Tracer &T) {
  RunResult R;
  SetupClock Setup(Cfg.Start);
  SuiteInputs In;
  if (!makeInputs(Cfg, In, R))
    return R;
  std::unique_ptr<Stage> Stages[] = {makeAnalyzeStage(In), makeServeStage(In),
                                     makeDemandStage(In)};
  for (std::unique_ptr<Stage> &S : Stages)
    if (!S->setUp(T, Setup, R))
      return R;
  const double SetupS = Setup.finish();

  // Untraced and traced rounds are kept apart; traced runs alternate them
  // so both see the same machine conditions.
  std::vector<double> RoundS, TracedRoundS;
  const Clock::time_point Begin = Clock::now();
  for (unsigned Round = 0;; ++Round) {
    const bool Traced = T.on() && Round % 2 == 1;
    Tracer Off(false);
    Tracer &RT = Traced ? T : Off;
    const Clock::time_point R0 = Clock::now();
    bool Ok = true;
    std::string Progress;
    for (size_t I = 0; Ok && I != std::size(Stages); ++I) {
      const Clock::time_point S0 = Clock::now();
      Ok = Stages[I]->round(RT, Traced, R);
      Progress += " " + std::to_string(secondsBetween(S0, Clock::now()));
    }
    (Traced ? TracedRoundS : RoundS).push_back(
        secondsBetween(R0, Clock::now()));
    std::fprintf(stderr, "perfbench: round %u%s, stages (s):%s\n", Round,
                 Traced ? " traced" : "", Progress.c_str());
    for (size_t I = 0; Ok && Traced && I != std::size(Stages); ++I)
      Ok = Stages[I]->traceLayers(RT, R);
    if (!Ok)
      break;
    if (secondsBetween(Begin, Clock::now()) >= Cfg.Seconds &&
        (!T.on() || Round >= 1))
      break;
  }
  const double PeakRss = peakRssMib();

  for (std::unique_ptr<Stage> &S : Stages)
    S->check(R);

  if (!T.on()) {
    R.add("setup_s", SetupS, "s");
    R.add("peak_rss_mib", PeakRss, "MiB");
  }
  for (const std::unique_ptr<Stage> &S : Stages)
    S->report(T.on(), R);
  if (T.on() && !TracedRoundS.empty())
    R.add("trace.overhead_ratio", minOf(TracedRoundS) / minOf(RoundS),
          "ratio");
  return R;
}

} // namespace pb
