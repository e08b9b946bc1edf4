//===- main.cpp - Repository benchmark program ----------------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <wine|gimp> --seed <n> --seconds <s>
///           --trace <0|1> [--start-ns <steady-clock ns>]
///           [--work-dir <dir>] [--result-dir <dir>]
///
/// Runs one workload and prints, as the last line of standard output,
/// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
/// --trace 0, per-layer metrics with --trace 1 (the traced run also
/// writes its spans to <result-dir>/trace-<workload>-<seed>.json).
/// Exits 0 when a result was printed, 1 on a fatal error, 2 on usage.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Common.h"
#include "Workloads.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace pb;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <wine|gimp> --seed <n> "
               "--seconds <s> --trace <0|1> [--start-ns <ns>] "
               "[--work-dir <dir>] [--result-dir <dir>]\n");
  return 2;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  if (!*S || std::strspn(S, "0123456789") != std::strlen(S))
    return false;
  errno = 0;
  Out = std::strtoull(S, nullptr, 10);
  return errno == 0;
}

std::string jsonNumber(const Metric &M) {
  char Buf[64];
  if (M.Integer)
    std::snprintf(Buf, sizeof(Buf), "%llu",
                  static_cast<unsigned long long>(M.Value));
  else
    std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  Cfg.Start = Clock::now();
  Cfg.WorkDir = "perfbench/work";
  Cfg.ResultDir = "perfbench/results";
  bool SawWorkload = false, SawSeed = false, SawSeconds = false,
       SawTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    const char *Val = Argv[++I];
    uint64_t N = 0;
    if (Arg == "--workload") {
      Cfg.Workload = Val;
      SawWorkload = true;
    } else if (Arg == "--seed" && parseUnsigned(Val, N)) {
      Cfg.Seed = N;
      SawSeed = true;
    } else if (Arg == "--seconds" && parseUnsigned(Val, N) && N >= 1 &&
               N <= 600) {
      Cfg.Seconds = static_cast<double>(N);
      SawSeconds = true;
    } else if (Arg == "--trace" && parseUnsigned(Val, N) && N <= 1) {
      Cfg.Trace = N == 1;
      SawTrace = true;
    } else if (Arg == "--start-ns" && parseUnsigned(Val, N)) {
      Cfg.Start = Clock::time_point(std::chrono::nanoseconds(N));
    } else if (Arg == "--work-dir") {
      Cfg.WorkDir = Val;
    } else if (Arg == "--result-dir") {
      Cfg.ResultDir = Val;
    } else {
      return usage();
    }
  }
  if (!SawWorkload || !SawSeed || !SawSeconds || !SawTrace ||
      !isWorkload(Cfg.Workload))
    return usage();

  Tracer T(Cfg.Trace);
  RunResult R = runWorkload(Cfg, T);
  if (R.Attempted == 0) {
    for (const std::string &E : R.Errors)
      std::fprintf(stderr, "perfbench: %s\n", E.c_str());
    std::fprintf(stderr, "perfbench: no operation ran\n");
    return 1;
  }
  selfTest(Cfg.Seed, R);

  if (T.on()) {
    std::string Path = Cfg.ResultDir + "/trace-" + Cfg.Workload + "-" +
                       std::to_string(Cfg.Seed) + ".json";
    if (!T.write(Path, R.Metrics, Cfg.Workload, Cfg.Seed))
      R.error("cannot write " + Path);
    else
      std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                   T.numSpans(), Path.c_str());
  }
  for (const std::string &E : R.Errors)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", E.c_str());

  std::string Line = "{\"correct\": ";
  Line += R.Errors.empty() ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(R.Attempted);
  Line += ", \"failed\": " + std::to_string(R.Failed);
  Line += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    Line += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + jsonNumber(M) +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  return 0;
}
