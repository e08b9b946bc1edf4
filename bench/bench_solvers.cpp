//===- bench_solvers.cpp - Solver comparison + parallel speedup -----------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine-readable solver comparison: for every algorithm (bitmap sets),
/// cold wall-clock time plus the min of three repetitions, an embedded
/// "ag.metrics.v6" snapshot and peak tracked bytes per suite; then the
/// parallel wavefront solver at 1/2/4/8 threads against sequential
/// LCD+HCD, verifying bit-identical solutions and recording the speedup.
/// A "memory" section records the memory-kernel story per suite (arena
/// slab high-water mark, set-interning hit rate, physical vs routed
/// solution bytes) from the LCD+HCD run. Results land in
/// BENCH_solvers.json (argv[2] or the working directory).
///
/// The JSON records the host's hardware concurrency alongside the speedups:
/// parallel numbers are only meaningful relative to the cores the run
/// actually had (on a single-core host the speedup ceiling is 1.0 and the
/// sharding/locking overhead is all that shows).
///
/// An "obs_overhead" section times the LCD/bitmap solve with all
/// observability channels off vs trace+metrics on: the disabled time is
/// the cross-PR guardrail number (instrumentation must stay one branch
/// per site when off), the ratio bounds the cost of turning it on.
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "obs/MetricsRegistry.h"
#include "obs/Obs.h"
#include "obs/TraceRecorder.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace ag;
using namespace ag::bench;

namespace {

struct SolverRow {
  std::string Suite;
  std::string Kind;
  double ColdMs = 0; ///< First repetition (cold allocator/caches).
  double WallMs = 0; ///< Min of SolverReps repetitions.
  uint64_t WorklistPops = 0;
  uint64_t PeakBytes = 0;
  uint64_t Hash = 0;
  std::string MetricsJson; ///< Compact ag.metrics.v6 object for this run.
};

/// Memory-kernel numbers for one suite (from the cold LCD+HCD run).
struct MemoryRow {
  std::string Suite;
  uint64_t ArenaPeakBytes = 0;
  uint64_t ArenaPeakSlabs = 0;
  uint64_t InternedHits = 0;
  uint64_t InternedMisses = 0;
  uint64_t PeakBitmapBytes = 0;
  uint64_t PhysicalSetBytes = 0;
  uint64_t RoutedSetBytes = 0;
};

struct ParallelRow {
  std::string Suite;
  unsigned Threads = 0;
  double WallMs = 0;
  double Speedup = 0; ///< Sequential LCD+HCD wall time / this wall time.
  double Scaling = 0; ///< 1-thread parallel wall time / this wall time.
  uint64_t ParallelRounds = 0;
  uint64_t Propagations = 0;
  bool Identical = false; ///< Solution hash equals the sequential run's.
  std::string MetricsJson; ///< Compact ag.metrics.v6 object for this run.
};

void appendJsonEscaped(std::string &Out, const std::string &S) {
  for (char C : S)
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else {
      Out += C;
    }
}

} // namespace

int main(int Argc, char **Argv) {
  double Scale = scaleFromArgs(Argc, Argv);
  std::string OutPath =
      Argc > 2 ? Argv[2] : std::string("BENCH_solvers.json");
  printHeader("Solver comparison + parallel wavefront speedup",
              "Tables 3-5, parallel extension", Scale);
  unsigned HostCores = std::thread::hardware_concurrency();

  std::vector<Suite> Suites = loadSuites(Scale);
  std::vector<SolverRow> Rows;
  std::vector<MemoryRow> MemRows;
  std::vector<ParallelRow> ParRows;
  bool AllIdentical = true;
  // Per-kind repetitions: the first is recorded as the cold time, the
  // minimum of all reps as the steady-state wall time (min, not mean —
  // noise is one-sided).
  constexpr int SolverReps = 3;

  for (const Suite &S : Suites) {
    std::printf("%s:\n", S.Name.c_str());
    for (SolverKind Kind : AllSolverKinds) {
      RunResult R = runSolver(S, Kind, PtsRepr::Bitmap, SolverOptions(),
                              /*CaptureMetrics=*/true);
      SolverRow Row;
      Row.Suite = S.Name;
      Row.Kind = solverKindName(Kind);
      Row.ColdMs = R.Seconds * 1e3;
      Row.WallMs = Row.ColdMs;
      for (int Rep = 1; Rep != SolverReps; ++Rep) {
        RunResult Warm = runSolver(S, Kind, PtsRepr::Bitmap);
        Row.WallMs = std::min(Row.WallMs, Warm.Seconds * 1e3);
      }
      Row.WorklistPops = R.Stats.WorklistPops;
      Row.PeakBytes = R.PeakBitmapBytes + R.PeakBddBytes;
      Row.Hash = R.SolutionHash;
      Row.MetricsJson = std::move(R.MetricsJson);
      if (Kind == SolverKind::LCDHCD) {
        MemoryRow M;
        M.Suite = S.Name;
        M.ArenaPeakBytes = R.ArenaPeakBytes;
        M.ArenaPeakSlabs = R.ArenaPeakSlabs;
        M.InternedHits = R.InternedHits;
        M.InternedMisses = R.InternedMisses;
        M.PeakBitmapBytes = R.PeakBitmapBytes;
        M.PhysicalSetBytes = R.PhysicalSetBytes;
        M.RoutedSetBytes = R.RoutedSetBytes;
        MemRows.push_back(std::move(M));
      }
      std::printf("  %-8s %10.2f ms (cold %8.2f)  %10llu pops  %8.2f MB\n",
                  Row.Kind.c_str(), Row.WallMs, Row.ColdMs,
                  static_cast<unsigned long long>(Row.WorklistPops),
                  R.peakMb());
      Rows.push_back(std::move(Row));
    }

    // Parallel wavefront at each thread count vs the sequential LCD+HCD
    // run just recorded.
    double SeqMs = 0;
    uint64_t SeqHash = 0;
    for (const SolverRow &Row : Rows)
      if (Row.Suite == S.Name && Row.Kind == "LCD+HCD") {
        SeqMs = Row.WallMs;
        SeqHash = Row.Hash;
      }
    double OneThreadMs = 0;
    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      SolverOptions Opts;
      Opts.Threads = Threads;
      RunResult R = runSolver(S, SolverKind::LCDHCD, PtsRepr::Bitmap, Opts,
                              /*CaptureMetrics=*/true);
      ParallelRow P;
      P.Suite = S.Name;
      P.Threads = Threads;
      P.WallMs = R.Seconds * 1e3;
      if (Threads == 1)
        OneThreadMs = P.WallMs;
      P.Speedup = P.WallMs > 0 ? SeqMs / P.WallMs : 0;
      P.Scaling = P.WallMs > 0 ? OneThreadMs / P.WallMs : 0;
      P.ParallelRounds = R.Stats.ParallelRounds;
      P.Propagations = R.Stats.Propagations;
      P.Identical = R.SolutionHash == SeqHash;
      P.MetricsJson = std::move(R.MetricsJson);
      AllIdentical &= P.Identical;
      std::printf("  par x%-2u  %10.2f ms  speedup %5.2f  scaling %5.2f  "
                  "rounds %llu  props %llu  %s\n",
                  Threads, P.WallMs, P.Speedup, P.Scaling,
                  static_cast<unsigned long long>(P.ParallelRounds),
                  static_cast<unsigned long long>(P.Propagations),
                  P.Identical ? "identical" : "DIVERGED");
      ParRows.push_back(std::move(P));
    }
  }

  // --- Observability overhead guardrail: LCD/bitmap on the first suite,
  // best of OverheadReps with every channel off vs trace+metrics on. The
  // disabled number is what cross-PR comparisons gate on (<2% regression
  // vs an uninstrumented build); the ratio bounds the enabled cost.
  const Suite *Guard = &Suites.front();
  for (const Suite &S : Suites)
    if (S.RawConstraints > Guard->RawConstraints)
      Guard = &S;
  const Suite &GuardSuite = *Guard;
  constexpr int OverheadReps = 3;
  uint32_t SavedChannels =
      obs::ChannelBits.load(std::memory_order_relaxed);
  obs::ChannelBits.store(0, std::memory_order_relaxed);
  double DisabledBestMs = 0;
  for (int Rep = 0; Rep != OverheadReps; ++Rep) {
    RunResult R = runSolver(GuardSuite, SolverKind::LCD, PtsRepr::Bitmap);
    double Ms = R.Seconds * 1e3;
    if (Rep == 0 || Ms < DisabledBestMs)
      DisabledBestMs = Ms;
  }
  obs::setTraceEnabled(true);
  obs::setMetricsEnabled(true);
  double EnabledBestMs = 0;
  for (int Rep = 0; Rep != OverheadReps; ++Rep) {
    obs::TraceRecorder::instance().clear();
    obs::MetricsRegistry::instance().reset();
    RunResult R = runSolver(GuardSuite, SolverKind::LCD, PtsRepr::Bitmap);
    double Ms = R.Seconds * 1e3;
    if (Rep == 0 || Ms < EnabledBestMs)
      EnabledBestMs = Ms;
  }
  obs::TraceRecorder::instance().clear();
  obs::MetricsRegistry::instance().reset();
  obs::ChannelBits.store(SavedChannels, std::memory_order_relaxed);
  double OverheadRatio =
      DisabledBestMs > 0 ? EnabledBestMs / DisabledBestMs : 0;
  std::printf("\nobs overhead (LCD bitmap, %s, best of %d): off %.2f ms, "
              "trace+metrics %.2f ms, ratio %.3f\n",
              GuardSuite.Name.c_str(), OverheadReps, DisabledBestMs,
              EnabledBestMs, OverheadRatio);

  std::string Json = "{\n";
  Json += "  \"scale\": " + std::to_string(Scale) + ",\n";
  Json += "  \"host_cores\": " + std::to_string(HostCores) + ",\n";
  Json += "  \"solvers\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const SolverRow &R = Rows[I];
    Json += "    {\"suite\": \"";
    appendJsonEscaped(Json, R.Suite);
    Json += "\", \"kind\": \"";
    appendJsonEscaped(Json, R.Kind);
    Json += "\", \"wall_ms\": " + std::to_string(R.WallMs) +
            ", \"cold_ms\": " + std::to_string(R.ColdMs) +
            ", \"peak_tracked_bytes\": " + std::to_string(R.PeakBytes) +
            ", \"metrics\": " + R.MetricsJson + "}";
    Json += I + 1 == Rows.size() ? "\n" : ",\n";
  }
  Json += "  ],\n";
  Json += "  \"memory\": [\n";
  for (size_t I = 0; I != MemRows.size(); ++I) {
    const MemoryRow &M = MemRows[I];
    uint64_t Interned = M.InternedHits + M.InternedMisses;
    Json += "    {\"suite\": \"";
    appendJsonEscaped(Json, M.Suite);
    Json += "\", \"kind\": \"LCD+HCD\", \"arena_peak_bytes\": " +
            std::to_string(M.ArenaPeakBytes) +
            ", \"arena_peak_slabs\": " + std::to_string(M.ArenaPeakSlabs) +
            ", \"interned_hits\": " + std::to_string(M.InternedHits) +
            ", \"interned_misses\": " + std::to_string(M.InternedMisses) +
            ", \"interned_hit_rate\": " +
            std::to_string(Interned ? double(M.InternedHits) /
                                          double(Interned)
                                    : 0.0) +
            ", \"peak_bitmap_bytes\": " +
            std::to_string(M.PeakBitmapBytes) +
            ", \"physical_set_bytes\": " +
            std::to_string(M.PhysicalSetBytes) +
            ", \"routed_set_bytes\": " + std::to_string(M.RoutedSetBytes) +
            "}";
    Json += I + 1 == MemRows.size() ? "\n" : ",\n";
  }
  Json += "  ],\n";
  Json += "  \"parallel_lcdhcd\": [\n";
  for (size_t I = 0; I != ParRows.size(); ++I) {
    const ParallelRow &P = ParRows[I];
    Json += "    {\"suite\": \"";
    appendJsonEscaped(Json, P.Suite);
    Json += "\", \"threads\": " + std::to_string(P.Threads) +
            ", \"wall_ms\": " + std::to_string(P.WallMs) +
            ", \"speedup_vs_sequential\": " + std::to_string(P.Speedup) +
            ", \"scaling_vs_one_thread\": " + std::to_string(P.Scaling) +
            ", \"solution_identical\": " +
            (P.Identical ? "true" : "false") +
            ", \"metrics\": " + P.MetricsJson + "}";
    Json += I + 1 == ParRows.size() ? "\n" : ",\n";
  }
  Json += "  ],\n";
  Json += "  \"obs_overhead\": {\"suite\": \"";
  appendJsonEscaped(Json, GuardSuite.Name);
  Json += "\", \"kind\": \"LCD\", \"repr\": \"bitmap\", \"reps\": " +
          std::to_string(OverheadReps) +
          ", \"disabled_best_ms\": " + std::to_string(DisabledBestMs) +
          ", \"enabled_best_ms\": " + std::to_string(EnabledBestMs) +
          ", \"enabled_over_disabled\": " + std::to_string(OverheadRatio) +
          "}\n";
  Json += "}\n";

  if (std::FILE *F = std::fopen(OutPath.c_str(), "w")) {
    std::fputs(Json.c_str(), F);
    std::fclose(F);
    std::printf("\nwrote %s (host cores: %u)\n", OutPath.c_str(), HostCores);
  } else {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::printf("parallel solutions bit-identical to sequential: %s\n",
              AllIdentical ? "yes" : "NO — BUG");
  return AllIdentical ? 0 : 1;
}
