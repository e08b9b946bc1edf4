//===- Solve.h - One-call solver entry point --------------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's main entry point: run any of the paper's nine algorithms
/// (plus the naive oracle) over a constraint system and get the points-to
/// solution. Handles the HCD offline pass and representative seeding from
/// offline analyses.
///
/// Typical use (the OVS -> HCD offline -> solve pipeline in one call):
/// \code
///   ConstraintSystem CS = ...;
///   SolveResult R = solvePipeline(CS, SolverKind::PKHHCD);
///   bool Aliases = R.Solution.mayAlias(P, Q);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef AG_SOLVERS_SOLVE_H
#define AG_SOLVERS_SOLVE_H

#include "constraints/ConstraintSystem.h"
#include "constraints/OfflineVariableSubstitution.h"
#include "core/HcdOffline.h"
#include "core/PointsToSolution.h"
#include "core/Solver.h"
#include "core/SolveBudget.h"

#include "adt/Statistics.h"
#include "adt/Status.h"

namespace ag {

/// Solves \p CS with algorithm \p Kind using representation \p Repr.
///
/// \param StatsOut optional behaviour counters (Section 5.3 metrics).
/// \param Opts tuning knobs; defaults match the paper's configuration.
/// \param SeedReps optional pre-merge map (e.g. OvsResult::Rep) whose
///        representatives solvers must respect.
/// \param Hcd optional precomputed HCD offline result; when \p Kind uses
///        HCD and this is null, the offline pass runs internally (its time
///        is then included — pass it explicitly to time it separately, as
///        Table 3 reports it).
PointsToSolution solve(const ConstraintSystem &CS, SolverKind Kind,
                       PtsRepr Repr = PtsRepr::Bitmap,
                       SolverStats *StatsOut = nullptr,
                       const SolverOptions &Opts = SolverOptions(),
                       const std::vector<NodeId> *SeedReps = nullptr,
                       const HcdResult *Hcd = nullptr);

/// How a governed solve concluded.
enum class SolveOutcome {
  Precise,  ///< The requested algorithm ran to fixpoint within budget.
  Fallback, ///< Budget tripped; the Steensgaard over-approximation was
            ///< substituted (sound, less precise).
  Partial,  ///< Budget tripped with fallback disallowed: the solution is
            ///< the interrupted solver's state — UNFINISHED, treat as
            ///< unsound (sets may be missing members).
  Failed,   ///< Input rejected before solving (see SolveResult::St).
};

/// Returns a stable name for \p Outcome ("precise", "fallback", ...).
const char *solveOutcomeName(SolveOutcome Outcome);

/// Result of a budgeted solve.
struct SolveResult {
  PointsToSolution Solution;
  /// Ok for a precise run; the budget-trip reason for Fallback/Partial;
  /// the input error for Failed.
  Status St;
  SolveOutcome Outcome = SolveOutcome::Failed;
  /// True if Solution over-approximates the true points-to relation
  /// (Precise and Fallback). A Partial solution is explicitly NOT sound.
  bool Sound = false;

  bool usedFallback() const { return Outcome == SolveOutcome::Fallback; }
};

/// As solve(), but enforces \p Budget and degrades gracefully instead of
/// looping until done or OOM: when the budget trips, the precise solver
/// unwinds cleanly and the unification-based Steensgaard analysis (a
/// near-linear, sound over-approximation — with \p SeedReps folded in so
/// substituted variables keep their representatives' sets) is substituted.
/// With Budget.AllowFallback false, the interrupted solver's partial state
/// is returned instead, flagged unsound. Invalid input (unknown \p Kind,
/// mis-sized \p SeedReps) is reported as a Failed outcome, never as an
/// assert or undefined dispatch.
SolveResult solveGoverned(const ConstraintSystem &CS, SolverKind Kind,
                          const SolveBudget &Budget = SolveBudget(),
                          PtsRepr Repr = PtsRepr::Bitmap,
                          SolverStats *StatsOut = nullptr,
                          const SolverOptions &Opts = SolverOptions(),
                          const std::vector<NodeId> *SeedReps = nullptr,
                          const HcdResult *Hcd = nullptr);

/// The analysis pipeline `ptatool solve`/`snapshot` and the demand tier's
/// escalation share: offline variable substitution over \p CS, then
/// solveGoverned() on the reduced system seeded with the OVS merge map
/// (HCD kinds run their offline pass on the reduced system). The solution
/// covers every node of \p CS and equals a direct solve of it; OVS only
/// makes it cheaper. \p OvsOut, when given, receives the OVS result —
/// its Rep is the seed map a snapshot of \p CS persists.
SolveResult solvePipeline(const ConstraintSystem &CS, SolverKind Kind,
                          const SolveBudget &Budget = SolveBudget(),
                          SolverStats *StatsOut = nullptr,
                          const SolverOptions &Opts = SolverOptions(),
                          OvsResult *OvsOut = nullptr);

/// The graceful-degradation analysis solveGoverned() substitutes when a
/// budget trips: Steensgaard's near-linear unification analysis with
/// \p SeedReps (the offline substitutions the aborted run was seeded
/// with) folded back in, keeping every node's set a sound superset of
/// the precise answer for the seeded system. Exposed so warm-start
/// re-solving can degrade through the identical path — a budget trip
/// during an incremental re-solve then yields exactly the solution a
/// tripped cold solve of the same system would.
PointsToSolution steensgaardFallback(const ConstraintSystem &CS,
                                     const std::vector<NodeId> *SeedReps
                                     = nullptr);

} // namespace ag

#endif // AG_SOLVERS_SOLVE_H
