//===- Checks.h - The benchmark's own correctness checks --------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Correctness checks written independently of the program's own checker
/// (src/check) and of its solvers:
///
///  * a textbook Andersen worklist solver (Figure 1 of the paper: dynamic
///    transitive closure, no cycle detection, no difference propagation)
///    with the same function-offset rule, used as the least-solution
///    oracle on a small suite;
///  * a rule-closure check that every constraint holds in a solution;
///  * expected serve replies rendered from an exhaustive solution
///    (`alias` is a non-empty intersection, `pointedby` the inverse map);
///  * a self-test that corrupts one reply and one solution element and
///    requires each check to fail.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "Common.h"

#include "constraints/ConstraintSystem.h"
#include "core/PointsToSolution.h"

#include <string>
#include <vector>

namespace pb {

/// Least solution by the textbook worklist algorithm: one sorted object
/// list per node.
std::vector<std::vector<ag::NodeId>>
andersenOracle(const ag::ConstraintSystem &CS);

/// Number of nodes whose set in \p Sol differs from \p Oracle; the first
/// difference is described in \p Why.
uint64_t oracleMismatches(const ag::PointsToSolution &Sol,
                          const std::vector<std::vector<ag::NodeId>> &Oracle,
                          std::string &Why);

/// Number of constraints of \p CS that \p Sol violates (an address-of
/// target missing, or a copy/load/store inclusion not holding for some
/// resolved target); the first is described in \p Why.
uint64_t closureViolations(const ag::ConstraintSystem &CS,
                           const ag::PointsToSolution &Sol, std::string &Why);

/// Number of nodes whose sets differ between \p A and \p B.
uint64_t solutionMismatches(const ag::PointsToSolution &A,
                            const ag::PointsToSolution &B, std::string &Why);

/// Number of nodes where \p Sub's set is not contained in \p Super's.
uint64_t subsetViolations(const ag::PointsToSolution &Sub,
                          const ag::PointsToSolution &Super,
                          std::string &Why);

/// One serve request of the benchmark's query mix.
struct Query {
  enum Kind : uint8_t { Pts, Alias, PointedBy } K = Pts;
  ag::NodeId A = 0;
  ag::NodeId B = 0;

  /// The request line, newline-terminated.
  std::string line() const;
};

/// The reply the serve layer must give to \p Q over solution \p Sol,
/// derived without the program's query code: sorted lists, a
/// non-empty-intersection test, and the inverse map for pointedby.
std::string expectedReply(const ag::PointsToSolution &Sol, const Query &Q);

/// Fingerprints of observed replies per (epoch, query). The first reply
/// seen for an entry is kept; a later one that differs from it counts as
/// inconsistent. Recording is cheap enough for the timed loop; the
/// comparison against expected replies runs after it.
class ReplyLedger {
public:
  ReplyLedger(size_t Epochs, size_t Queries);

  void record(size_t Epoch, size_t Query, uint64_t Fingerprint);

  /// Observed entries whose fingerprint differs from
  /// \p Expected[epoch][query], plus inconsistent repeats; unobserved
  /// entries are skipped.
  uint64_t mismatches(const std::vector<std::vector<uint64_t>> &Expected,
                      std::string &Why) const;

  /// True if some reply to (\p Epoch, \p Query) was recorded.
  bool seen(size_t Epoch, size_t Query) const {
    return Seen[Epoch * Queries + Query];
  }

private:
  size_t Queries;
  std::vector<uint64_t> Fps;
  std::vector<uint8_t> Seen;
  uint64_t Inconsistent = 0;
};

/// Runs the self-test on a small suite: a clean reply and a clean
/// solution pass, one corrupted reply and one corrupted solution element
/// each make their check fail. Failures are appended to \p R.
void selfTest(uint64_t Seed, RunResult &R);

} // namespace pb

#endif // PERFBENCH_CHECKS_H
