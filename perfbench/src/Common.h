//===- Common.h - Benchmark plumbing ----------------------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the repository benchmark: run configuration, the
/// result record every workload fills, order statistics, seeded suite
/// generation, set-up accounting and the span tracer of the traced run.
///
/// Spans are recorded by the benchmark's own code around calls into each
/// module's public functions; the program itself is never instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "constraints/ConstraintSystem.h"
#include "workload/WorkloadGen.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// One command-line invocation.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Process start on the steady clock (the launcher stamps it just
  /// before exec); set-up time is measured from here.
  Clock::time_point Start;
  /// Scratch directory for generated inputs and sockets (relative).
  std::string WorkDir;
  /// Directory the traced run writes its span file into (relative).
  std::string ResultDir;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  bool Integer = false;
};

/// What a workload reports. Errors make the run incorrect.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
  std::vector<Metric> Metrics;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit), false});
  }
  void addCount(std::string Name, uint64_t Value) {
    Metrics.push_back(
        {std::move(Name), static_cast<double>(Value), "count", true});
  }
  void error(std::string What) { Errors.push_back(std::move(What)); }
};

/// Order statistics (linear interpolation between closest ranks).
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }
double minOf(const std::vector<double> &V);
double meanOf(const std::vector<double> &V);

/// Peak resident set of this process so far, in MiB.
double peakRssMib();

/// 64-bit fingerprint of \p S, eight bytes per step (reply checks).
uint64_t fingerprint(const std::string &S);

/// splitmix64 step: derives independent generator seeds from the run seed.
uint64_t mixSeed(uint64_t X);

/// Suite \p Name at \p Scale exactly as `ptatool gen` writes it.
ag::BenchmarkSpec paperSuite(const std::string &Name, double Scale);

/// The same suite shape with its generator seed derived from the run
/// seed: a different program of the same size and mix per run seed.
ag::BenchmarkSpec suiteSpec(const std::string &Name, double Scale,
                            uint64_t RunSeed);

/// Set-up accounting: time from process start to the first timed
/// operation, minus the benchmark's own work (query selection, expected
/// answers) done before it.
class SetupClock {
public:
  explicit SetupClock(Clock::time_point Start) : Start(Start) {}
  /// Excludes the interval [From, now) from set-up time.
  void excludeSince(Clock::time_point From) {
    Excluded += secondsBetween(From, Clock::now());
  }
  /// Marks the first timed operation; returns set-up seconds.
  double finish() const {
    return secondsBetween(Start, Clock::now()) - Excluded;
  }

private:
  Clock::time_point Start;
  double Excluded = 0;
};

/// In-memory span recorder of the traced run. A disabled tracer records
/// nothing and costs one branch per scope.
class Tracer {
public:
  explicit Tracer(bool On);

  bool on() const { return On; }

  /// RAII span around one call into a layer. seconds() is valid after
  /// stop() (or destruction); a disabled tracer's scopes report 0.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name);
    ~Scope() { stop(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    double stop();

  private:
    Tracer &T;
    int Id = -1;
    bool Open = false;
    double Seconds = 0;
  };

  /// Writes every span plus \p PerLayer as one JSON document.
  bool write(const std::string &Path, const std::vector<Metric> &PerLayer,
             const std::string &Workload, uint64_t Seed) const;

  size_t numSpans() const { return Spans.size(); }

private:
  struct Span {
    const char *Name;
    int64_t StartNs;
    int64_t EndNs;
    int Parent;
  };

  int begin(const char *Name);
  double end(int Id);

  bool On;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<int> Stack;
  std::vector<int64_t> PendingStarts;
  /// Spans past this cap are timed but not kept (bounded memory).
  static constexpr size_t MaxSpans = 400000;
  uint64_t Dropped = 0;
};

} // namespace pb

#endif // PERFBENCH_COMMON_H
