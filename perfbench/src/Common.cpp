//===- Common.cpp - Benchmark plumbing ------------------------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace pb {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double minOf(const std::vector<double> &V) {
  return V.empty() ? 0 : *std::min_element(V.begin(), V.end());
}

double meanOf(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return Sum / static_cast<double>(V.size());
}

double peakRssMib() {
  struct rusage RU = {};
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

uint64_t fingerprint(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull ^ S.size();
  size_t I = 0;
  for (; I + 8 <= S.size(); I += 8) {
    uint64_t W;
    std::memcpy(&W, S.data() + I, 8);
    H = (H ^ W) * 0x100000001b3ull;
    H ^= H >> 29;
  }
  for (; I != S.size(); ++I)
    H = (H ^ static_cast<unsigned char>(S[I])) * 0x100000001b3ull;
  return H ^ (H >> 32);
}

uint64_t mixSeed(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

ag::BenchmarkSpec paperSuite(const std::string &Name, double Scale) {
  for (const ag::BenchmarkSpec &Spec : ag::paperSuites(Scale))
    if (Spec.Name == Name)
      return Spec;
  std::fprintf(stderr, "perfbench: unknown suite '%s'\n", Name.c_str());
  std::abort();
}

ag::BenchmarkSpec suiteSpec(const std::string &Name, double Scale,
                            uint64_t RunSeed) {
  ag::BenchmarkSpec Spec = paperSuite(Name, Scale);
  Spec.Seed = mixSeed(Spec.Seed ^ (RunSeed << 16));
  return Spec;
}

Tracer::Tracer(bool On) : On(On), Epoch(Clock::now()) {
  if (On)
    Spans.reserve(1 << 16);
}

int Tracer::begin(const char *Name) {
  int64_t Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - Epoch)
                    .count();
  int Parent = Stack.empty() ? -1 : Stack.back();
  int Id = -1;
  if (Spans.size() < MaxSpans) {
    Id = static_cast<int>(Spans.size());
    Spans.push_back({Name, Now, Now, Parent});
  } else {
    ++Dropped;
  }
  Stack.push_back(Id);
  // A dropped span still needs its start time: keep it in a side slot.
  PendingStarts.push_back(Now);
  return Id;
}

double Tracer::end(int Id) {
  int64_t Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - Epoch)
                    .count();
  int64_t StartNs = PendingStarts.back();
  PendingStarts.pop_back();
  Stack.pop_back();
  if (Id >= 0)
    Spans[static_cast<size_t>(Id)].EndNs = Now;
  return static_cast<double>(Now - StartNs) * 1e-9;
}

Tracer::Scope::Scope(Tracer &T, const char *Name) : T(T) {
  if (T.On)
    Id = T.begin(Name), Open = true;
}

double Tracer::Scope::stop() {
  if (Open) {
    Seconds = T.end(Id);
    Open = false;
  }
  return Seconds;
}

bool Tracer::write(const std::string &Path,
                   const std::vector<Metric> &PerLayer,
                   const std::string &Workload, uint64_t Seed) const {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  Out << "{\"workload\": \"" << Workload << "\", \"seed\": " << Seed
      << ", \"dropped_spans\": " << Dropped << ",\n \"per_layer\": {";
  char Buf[64];
  for (size_t I = 0; I != PerLayer.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", PerLayer[I].Value);
    Out << (I ? ", " : "") << "\"" << PerLayer[I].Name << "\": {\"value\": "
        << Buf << ", \"unit\": \"" << PerLayer[I].Unit << "\"}";
  }
  Out << "},\n \"spans\": [";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << (I ? ",\n  " : "\n  ") << "{\"id\": " << I << ", \"name\": \""
        << S.Name << "\", \"start_ns\": " << S.StartNs
        << ", \"end_ns\": " << S.EndNs << ", \"parent\": " << S.Parent
        << "}";
  }
  Out << "\n ]}\n";
  return static_cast<bool>(Out);
}

} // namespace pb
