//===- Workloads.h - The benchmark's workloads and stages -------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload is one suite taken through the tool's whole life cycle, so
/// every workload reports every metric. Set-up generates the suite, holds
/// out a few seeded delta slices and lets each stage prepare. A round then
/// runs three stages in turn, each on the same base system:
///
///  * analyze: cold `.cons` parse, OVS, HCD offline, solve, hash and
///    snapshot bytes, once with LCD+HCD and once with PKH+HCD;
///  * serve: a closed-loop query mix over a unix socket on the base
///    snapshot, with a warm `resolve` of each slice between phases;
///  * demand: demand-tier first answers over the unsolved base graph, then
///    the whole query stream on one tier.
///
/// Rounds repeat the same operations until the configured time is spent;
/// then every output is checked. Untraced runs report end-to-end metrics;
/// traced runs alternate untraced and traced rounds, report per-layer
/// metrics plus the tracing overhead, and write their spans.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

#include <memory>

namespace pb {

/// The suites a workload may name.
bool isWorkload(const std::string &Name);

/// Runs the workload Cfg.Workload (a suite name).
RunResult runWorkload(const RunConfig &Cfg, Tracer &T);

/// What every stage reads: the suite's base system as a file, and the
/// held-out delta slices as constraints and as files.
struct SuiteInputs {
  std::string Suite;
  uint64_t Seed = 0;
  std::string WorkDir;
  /// The full node table with the retained constraints.
  ag::ConstraintSystem Base;
  std::string BasePath;
  std::vector<std::vector<ag::Constraint>> Slices;
  std::vector<std::string> SlicePaths;
};

/// One part of a round. setUp runs before the first timed operation,
/// round once per round, check and report once after the last round.
class Stage {
public:
  virtual ~Stage() = default;
  /// Prepares the stage; the stage's own bookkeeping is excluded from
  /// \p Setup. Returns false on a fatal error (recorded in \p R).
  virtual bool setUp(Tracer &T, SetupClock &Setup, RunResult &R) = 0;
  /// Runs one round; \p T records spans only in traced rounds. Returns
  /// false on a fatal error.
  virtual bool round(Tracer &T, bool Traced, RunResult &R) = 0;
  /// Traced rounds only, untimed: extra passes that call single layers
  /// directly. Returns false on a fatal error.
  virtual bool traceLayers(Tracer &, RunResult &) { return true; }
  /// Checks every output of the rounds.
  virtual void check(RunResult &R) = 0;
  /// Adds the stage's end-to-end or (\p Trace) per-layer metrics.
  virtual void report(bool Trace, RunResult &R) const = 0;
};

std::unique_ptr<Stage> makeAnalyzeStage(const SuiteInputs &In);
std::unique_ptr<Stage> makeServeStage(const SuiteInputs &In);
std::unique_ptr<Stage> makeDemandStage(const SuiteInputs &In);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
