#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "constraints/ast.h"
#include "milp/branch_and_bound.h"
#include "milp/decompose.h"
#include "milp/presolve.h"
#include "repair/repair.h"
#include "repair/translator.h"
#include "util/status.h"

/// \file engine.h
/// The repairing module (paper Sec. 6.3): computes a card-minimal repair for
/// a database w.r.t. a set of steady aggregate constraints by building
/// S*(AC) and solving it, with adaptive big-M enlargement and post-solve
/// verification.

namespace dart::repair {

struct RepairEngineOptions {
  TranslatorOptions translator;
  /// Solver configuration. The presolve/decomposition stages that the engine
  /// dispatches between live in milp.decomposition (DecompositionOptions) —
  /// they used to be loose `use_presolve` / `use_decomposition` bools here.
  milp::MilpOptions milp;
  /// How many times the engine may enlarge M (×100 each time) when the model
  /// is infeasible or the optimum presses against the M box — both are
  /// symptoms of a too-small practical M.
  int max_bigm_retries = 3;
  /// Re-check ρ(D) ⊨ AC after solving (cheap; catches solver bugs).
  bool verify_result = true;
  /// Use the exhaustive binary-enumeration baseline instead of
  /// branch-and-bound (tests / solver ablation only; exponential!).
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
  /// Wall-clock seconds inside the MILP search itself (excludes translation
  /// and presolve; accumulated over big-M retries).
  double milp_wall_seconds = 0;
  /// Shape of the *final* solve attempt (not summed across big-M retries):
  /// connected components the model split into (1 when decomposition is off
  /// or the model is connected) and the variable count of the largest one.
  int num_components = 1;
  int largest_component_vars = 0;
  /// Presolve reductions of the final solve attempt (0 when presolve off).
  int presolve_variables_eliminated = 0;
  int presolve_rows_removed = 0;
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
  /// the operator's value pins. Returns:
  ///   - an empty repair when the database is already consistent;
  ///   - Status::Infeasible when no repair exists (e.g. a violated ground
  ///     constraint contains no measure value, or the pins contradict AC).
  ///
  /// `warm_start`, when given, seeds the branch-and-bound incumbent with
  /// that repair's assignment (useful across validation-loop iterations; it
  /// is verified and silently dropped if the new pins contradict it).
  ///
  /// `ground`, when given, must be `GroundConstraintProgram(db, constraints)`
  /// for this same database — the engine then grounds nothing itself: the
  /// consistency fast path, every translation attempt, and the final
  /// verification all reuse it (valid across repairs by steadiness). When
  /// null the engine grounds once per call, which is still one grounding
  /// for the whole big-M retry loop (counter `repair.groundings`).
  Result<RepairOutcome> ComputeRepair(
      const rel::Database& db, const cons::ConstraintSet& constraints,
      const std::vector<FixedValue>& fixed_values = {},
      const Repair* warm_start = nullptr,
      const cons::GroundProgram* ground = nullptr) const;

  const RepairEngineOptions& options() const { return options_; }

 private:
  RepairEngineOptions options_;
};

/// Sorts updates for display per the Validation Interface heuristic
/// (Sec. 6.3): updates whose cell occurs in more ground constraints first;
/// ties broken by cell order for determinism.
void OrderUpdatesForDisplay(const Translation& translation, Repair* repair);

namespace internal {

/// Extracts the repair encoded by a MILP solution: every zᵢ whose value
/// differs from vᵢ (beyond a relative 1e-6 tolerance) becomes an atomic
/// update; integer-domain values snap to the nearest integer, continuous
/// ones to a 6-decimal grid. Shared by the from-scratch engine and the
/// incremental session so both render solutions identically.
Result<Repair> ExtractRepair(const rel::Database& db,
                             const Translation& translation,
                             const std::vector<double>& point);

/// Snaps a solved z value the same way ExtractRepair renders it into the
/// database, so a pin of an accepted value reproduces the repair exactly.
double SnapCellValue(const rel::Database& db, const rel::CellRef& cell,
                     double z);

/// Presolve + decomposition bookkeeping of one solve attempt, kept around so
/// the big-M retry can tell accepted components from saturated ones. Shared
/// by the per-document engine loop and the fused batch path (batch.h).
struct AttemptContext {
  milp::PresolveResult presolved;
  bool used_presolve = false;
  milp::Decomposition decomposition;
  std::vector<milp::MilpResult> component_results;
  bool decomposed = false;
};

/// The engine's verdict on one solve attempt: whether M must grow, and if
/// so which components carry the blame ("dirty": infeasible, or an optimal
/// |y| pressing against its Mᵢ box) versus which were accepted and may be
/// pinned on the retry.
struct RetryDecision {
  bool grow_m_and_retry = false;
  /// Grow verdict is component-local (nothing outside components is dirty):
  /// the accepted components' values can be pinned so only dirty blocks
  /// re-solve.
  bool pin_clean_components = false;
  std::vector<char> component_dirty;  ///< per decomposition component.
};

/// Inspects a solve attempt for big-M symptoms. Infeasibility may be a
/// too-tight z box rather than true non-existence, and an optimal y at
/// 0.999·Mᵢ suggests the unboxed optimum lies outside; kNodeLimit and
/// kUnbounded are never big-M symptoms and suppress the retry.
RetryDecision DecideBigMRetry(const Translation& translation,
                              const AttemptContext& ctx,
                              const milp::MilpResult& solved);

/// Pins every not-yet-pinned cell of the clean (accepted) components to its
/// solved value, snapped as ExtractRepair would render it. Appends to
/// `retry_pins` / `pinned_cells`.
void AppendCleanComponentPins(const rel::Database& db,
                              const Translation& translation,
                              const AttemptContext& ctx,
                              const std::vector<char>& component_dirty,
                              std::set<rel::CellRef>* pinned_cells,
                              std::vector<FixedValue>* retry_pins);

/// Copies one attempt's instance-shape numbers and timings into `stats` and
/// the matching repair.* gauges/histograms (translate/solve seconds
/// accumulate across attempts; shape fields reflect the latest attempt).
void RecordAttemptStats(const Translation& translation,
                        const milp::MilpResult& solved,
                        double translate_seconds, double solve_seconds,
                        int attempt, RepairStats* stats,
                        obs::RunContext* run);

/// Turns a final (no-retry) solve attempt into the engine's result: maps
/// non-optimal statuses to the engine's error contract, extracts the
/// repair, enforces the card-minimality invariant when `weights_empty`,
/// verifies ρ(D) ⊨ AC against the ground program when `verify_result`, and
/// orders the updates for display.
Result<Repair> FinalizeAttempt(const rel::Database& db,
                               const cons::GroundProgram& ground,
                               const Translation& translation,
                               const milp::MilpResult& solved,
                               bool weights_empty, bool verify_result,
                               const std::vector<FixedValue>& fixed_values,
                               obs::RunContext* run);

}  // namespace internal

}  // namespace dart::repair
