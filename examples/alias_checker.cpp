//===- alias_checker.cpp - May-alias analysis of mini-C source ------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end use of the frontend: parse a mini-C file (or a built-in demo
/// program), generate inclusion constraints, solve, and print the points-to
/// set of every named pointer variable plus a may-alias matrix.
///
/// Usage: alias_checker [file.c]
///
//===----------------------------------------------------------------------===//

#include "frontend/ConstraintGen.h"
#include "solvers/Solve.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace ag;

namespace {

const char *DemoProgram = R"(
// A small allocator/consumer program with aliasing worth asking about.
struct node { struct node *next; int *payload; };

struct node *freelist;
int shared_counter;
int private_counter;

struct node *grab() {
  struct node *n;
  if (freelist) {
    n = freelist;
    freelist = n->next;
  } else {
    n = malloc(16);
  }
  return n;
}

void release(struct node *n) {
  n->next = freelist;
  freelist = n;
}

void produce() {
  struct node *a;
  struct node *b;
  a = grab();
  b = grab();
  a->payload = &shared_counter;
  b->payload = &private_counter;
  release(a);
  release(b);
}

int *consume() {
  struct node *n;
  n = grab();
  return n->payload;
}
)";

} // namespace

int main(int Argc, char **Argv) {
  std::string Source;
  if (Argc > 1) {
    std::ifstream In(Argv[1]);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Argv[1]);
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Source = Buf.str();
    std::printf("== analyzing %s\n", Argv[1]);
  } else {
    Source = DemoProgram;
    std::printf("== analyzing built-in demo program\n");
  }

  GeneratedConstraints Gen;
  std::string Error;
  if (!generateConstraintsFromSource(Source, Gen, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("constraints: %zu over %u nodes\n",
              Gen.CS.constraints().size(), Gen.CS.numNodes());

  SolverStats Stats;
  PointsToSolution Solution =
      solvePipeline(Gen.CS, SolverKind::LCDHCD, SolveBudget(), &Stats)
          .Solution;

  // Print the points-to sets of the user-visible variables that point at
  // anything.
  std::printf("\n-- points-to sets (non-empty, named variables)\n");
  std::vector<std::pair<std::string, NodeId>> Interesting;
  for (const auto &[Name, Node] : Gen.Variables) {
    if (Name.find("tmp.") != std::string::npos)
      continue;
    if (Solution.pointsTo(Node).empty())
      continue;
    Interesting.emplace_back(Name, Node);
  }
  for (const auto &[Name, Node] : Interesting) {
    std::printf("  %-22s -> {", Name.c_str());
    bool First = true;
    for (NodeId O : Solution.pointsToVector(Node)) {
      std::printf("%s%s", First ? "" : ", ", Gen.CS.nameOf(O).c_str());
      First = false;
    }
    std::printf("}\n");
  }

  std::printf("\n-- may-alias matrix\n      ");
  for (size_t I = 0; I != Interesting.size(); ++I)
    std::printf(" %zu", I);
  std::printf("\n");
  for (size_t I = 0; I != Interesting.size(); ++I) {
    std::printf("  [%zu] %-22s", I, Interesting[I].first.c_str());
    for (size_t J = 0; J != Interesting.size(); ++J)
      std::printf("%s",
                  Solution.mayAlias(Interesting[I].second,
                                    Interesting[J].second)
                      ? " A"
                      : " .");
    std::printf("\n");
  }

  std::printf("\n-- solver stats\n%s", Stats.toString("  ").c_str());
  return 0;
}
