#pragma once

#include <vector>

#include "constraints/ast.h"
#include "constraints/ground.h"
#include "milp/branch_and_bound.h"
#include "repair/repair.h"
#include "repair/translator.h"
#include "util/status.h"

/// \file engine.h
/// The repairing module (paper Sec. 6.3): computes a card-minimal repair for
/// a database w.r.t. a set of steady aggregate constraints by building
/// S*(AC) and solving it, with adaptive big-M enlargement and post-solve
/// verification. RepairEngine is the one-shot entry point; the work itself
/// is the component session's round loop (repair/incremental.h), which
/// ComputeRepairBatch and the validation loop run as well.

namespace dart::repair {

struct RepairEngineOptions {
  TranslatorOptions translator;
  /// Solver configuration. milp.decomposition.use_components selects the
  /// constraint-graph split (off = one component holding every variable);
  /// milp.decomposition.use_presolve is not read by the repair core.
  milp::MilpOptions milp;
  /// How many times one component's M may grow (×100 each time, in place)
  /// when the component is infeasible or its optimum presses against the M
  /// box — both are symptoms of a too-small practical M.
  int max_bigm_retries = 3;
  /// Re-check ρ(D) ⊨ AC after solving against the ground program rows
  /// (cheap; catches solver bugs).
  bool verify_result = true;
  /// Solve each component by the exhaustive binary-enumeration baseline
  /// instead of branch-and-bound (tests / solver ablation only; exponential
  /// in the component's binaries, which must not exceed 22).
  bool use_exhaustive_solver = false;
  /// Observability sink for the whole computation (nullptr = no-op).
  /// Propagated into milp.run for the solves. Search counters (milp.nodes,
  /// milp.lp_iterations, ...) are published only here — attach a RunContext
  /// and diff its registry snapshots to observe them.
  obs::RunContext* run = nullptr;
};

struct RepairStats {
  size_t num_cells = 0;       ///< N — number of z/y/δ triples.
  size_t num_ground_rows = 0; ///< rows of A (ground constraint instances).
  /// Constraint-matrix sparsity of the translated MILP (see
  /// Translation::matrix_*): rows × cols, structural nonzeros, and density.
  /// Also published as repair.matrix_* gauges.
  int matrix_rows = 0;
  int matrix_cols = 0;
  long long matrix_nnz = 0;
  double matrix_density = 0;
  double practical_m = 0;
  double theoretical_m_log10 = 0;
  // Search counters (nodes, LP iterations, warm solves) live exclusively in
  // the obs registry now (docs/observability.md): attach
  // RepairEngineOptions::run and diff registry snapshots around
  // ComputeRepair to read them.
  int bigm_retries = 0;
  double translate_seconds = 0;
  double solve_seconds = 0;
  /// Wall-clock seconds inside the MILP searches themselves (excludes
  /// translation and decomposition; accumulated over big-M rounds).
  double milp_wall_seconds = 0;
  /// Shape of the decomposition: connected components the model split into
  /// (1 when decomposition is off or the model is connected) and the
  /// variable count of the largest one.
  int num_components = 1;
  int largest_component_vars = 0;
};

struct RepairOutcome {
  Repair repair;
  RepairStats stats;
  /// True when the input already satisfied AC (and no pins were given) — the
  /// repair is empty and no MILP was solved.
  bool already_consistent = false;
};

/// Computes card-minimal repairs.
class RepairEngine {
 public:
  explicit RepairEngine(RepairEngineOptions options = {})
      : options_(std::move(options)) {}

  /// Computes a card-minimal repair of `db` w.r.t. `constraints`, honoring
  /// the operator's value pins. A one-shot component session
  /// (repair/incremental.h): translate and decompose once, pins as bounds,
  /// one batch solve, big-M grown in place per component. Returns:
  ///   - an empty repair when the database is already consistent;
  ///   - Status::Infeasible when no repair exists (e.g. a violated ground
  ///     constraint contains no measure value, or the pins contradict AC);
  ///   - Status::InvalidArgument for a NaN or infinite pin, or a pin on a
  ///     cell outside the translation.
  ///
  /// `warm_start`, when given, seeds the branch-and-bound incumbent with
  /// that repair's assignment (useful across validation-loop iterations; it
  /// is verified and silently dropped if the new pins contradict it).
  ///
  /// `ground`, when given, must be `GroundConstraintProgram(db, constraints)`
  /// for this same database — the engine then grounds nothing itself: the
  /// consistency fast path, the translation and the final verification all
  /// reuse it (valid across repairs by steadiness). When null the engine
  /// grounds once per call (counter `repair.groundings`).
  Result<RepairOutcome> ComputeRepair(
      const rel::Database& db, const cons::ConstraintSet& constraints,
      const std::vector<FixedValue>& fixed_values = {},
      const Repair* warm_start = nullptr,
      const cons::GroundProgram* ground = nullptr) const;

  const RepairEngineOptions& options() const { return options_; }

 private:
  RepairEngineOptions options_;
};

}  // namespace dart::repair
