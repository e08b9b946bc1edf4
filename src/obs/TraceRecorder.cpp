//===- TraceRecorder.cpp - Chrome trace_event recording -------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "obs/TraceRecorder.h"

#include <cstdio>
#include <fstream>

using namespace ag;
using namespace ag::obs;

TraceRecorder &TraceRecorder::instance() {
  static TraceRecorder R;
  return R;
}

void TraceRecorder::append(const char *Name, const char *Cat, char Phase,
                           const char *ArgKey, uint64_t ArgVal,
                           const char *ArgKey2, uint64_t ArgVal2) {
  TraceEvent E;
  E.TsNanos = nowNanos();
  E.Name = Name;
  E.Cat = Cat;
  E.ArgKey = ArgKey;
  E.ArgVal = ArgVal;
  E.ArgKey2 = ArgKey2;
  E.ArgVal2 = ArgVal2;
  E.Tid = trackId();
  E.Phase = Phase;
  std::lock_guard<std::mutex> Lock(Mu);
  Events.push_back(E);
}

size_t TraceRecorder::eventCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events.size();
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Events.clear();
}

std::string TraceRecorder::renderJson() const {
  std::vector<TraceEvent> Snapshot = events();
  std::string Out = "{\"traceEvents\":[\n";
  char Buf[64];
  for (size_t I = 0; I != Snapshot.size(); ++I) {
    const TraceEvent &E = Snapshot[I];
    Out += "{\"name\":\"";
    Out += E.Name;
    Out += "\",\"cat\":\"";
    Out += E.Cat;
    Out += "\",\"ph\":\"";
    Out += E.Phase;
    // trace_event timestamps are microseconds; keep sub-microsecond
    // precision as a decimal fraction.
    std::snprintf(Buf, sizeof(Buf), "\",\"ts\":%llu.%03u,",
                  static_cast<unsigned long long>(E.TsNanos / 1000),
                  static_cast<unsigned>(E.TsNanos % 1000));
    Out += Buf;
    Out += "\"pid\":1,\"tid\":";
    Out += std::to_string(E.Tid);
    if (E.ArgKey) {
      Out += ",\"args\":{\"";
      Out += E.ArgKey;
      Out += "\":";
      Out += std::to_string(E.ArgVal);
      if (E.ArgKey2) {
        Out += ",\"";
        Out += E.ArgKey2;
        Out += "\":";
        Out += std::to_string(E.ArgVal2);
      }
      Out += "}";
    } else if (E.Phase == 'i') {
      // Instants want a scope; "t" (thread) keeps them on their track.
      Out += ",\"s\":\"t\"";
    }
    Out += "}";
    if (I + 1 != Snapshot.size())
      Out += ',';
    Out += '\n';
  }
  Out += "],\"displayTimeUnit\":\"ms\",";
  Out += "\"metadata\":{\"schema\":\"ag.trace.v1\"}}\n";
  return Out;
}

Status TraceRecorder::writeJson(const std::string &Path) const {
  std::ofstream Os(Path, std::ios::binary);
  if (!Os)
    return Status::ioError("cannot open trace output '" + Path + "'");
  std::string Json = renderJson();
  Os.write(Json.data(), static_cast<std::streamsize>(Json.size()));
  if (!Os)
    return Status::ioError("short write to trace output '" + Path + "'");
  return Status::okStatus();
}
