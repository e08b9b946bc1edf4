//===- callgraph.cpp - Indirect call resolution ---------------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic pointer-analysis client: build the program call graph,
/// resolving function-pointer calls from the points-to solution. Each
/// variable whose points-to set contains function objects is a potential
/// indirect-call site; its callees are exactly those functions.
///
/// Usage: callgraph [file.c]
///
//===----------------------------------------------------------------------===//

#include "frontend/ConstraintGen.h"
#include "solvers/Solve.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace ag;

namespace {

const char *DemoProgram = R"(
// An event-dispatch table: the bread-and-butter indirect-call pattern.
int log_slot;

int *handle_read(int *buf) { return buf; }
int *handle_write(int *buf) { log_slot = 1; return buf; }
int *handle_close(int *buf) { return &log_slot; }

int *dispatch_table[4];
int *fallback;

void install() {
  dispatch_table[0] = handle_read;
  dispatch_table[1] = handle_write;
  fallback = handle_close;
}

int *dispatch(int which, int *payload) {
  int *handler;
  handler = dispatch_table[which];
  if (!handler)
    handler = fallback;
  return handler(payload);
}
)";

} // namespace

int main(int Argc, char **Argv) {
  std::string Source = DemoProgram;
  const char *Label = "built-in demo program";
  if (Argc > 1) {
    std::ifstream In(Argv[1]);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Argv[1]);
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Source = Buf.str();
    Label = Argv[1];
  }
  std::printf("== call-graph construction for %s\n", Label);

  GeneratedConstraints Gen;
  std::string Error;
  if (!generateConstraintsFromSource(Source, Gen, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  PointsToSolution Solution =
      solvePipeline(Gen.CS, SolverKind::LCDHCD).Solution;

  // Invert the function map for object -> name lookups.
  std::map<NodeId, std::string> FunctionNames;
  for (const auto &[Name, Obj] : Gen.Functions)
    FunctionNames[Obj] = Name;

  // Every named variable (skipping frontend temporaries) that may point to
  // a function is a potential indirect-call site.
  std::printf("\n-- function-pointer targets\n");
  unsigned Sites = 0;
  for (const auto &[Name, Node] : Gen.Variables) {
    if (Name.find("tmp.") != std::string::npos)
      continue;
    std::set<std::string> Callees;
    for (NodeId O : Solution.pointsToVector(Node)) {
      auto It = FunctionNames.find(O);
      if (It != FunctionNames.end())
        Callees.insert(It->second);
    }
    if (Callees.empty())
      continue;
    ++Sites;
    std::printf("  %-20s may call:", Name.c_str());
    for (const std::string &C : Callees)
      std::printf(" %s", C.c_str());
    std::printf("\n");
  }
  if (Sites == 0)
    std::printf("  (no function pointers in this program)\n");

  // Also report, per function, the return-value points-to set: a cheap
  // whole-program summary clients like inliners use.
  std::printf("\n-- function return summaries\n");
  for (const auto &[Name, Obj] : Gen.Functions) {
    NodeId Ret = Obj + ConstraintSystem::FunctionReturnOffset;
    const SparseBitVector &Pts = Solution.pointsTo(Ret);
    if (Pts.empty())
      continue;
    std::printf("  %s() returns pointers to:", Name.c_str());
    for (NodeId O : Solution.pointsToVector(Ret))
      std::printf(" %s", Gen.CS.nameOf(O).c_str());
    std::printf("\n");
  }
  return 0;
}
