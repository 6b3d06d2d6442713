#pragma once

#include <vector>

#include "milp/branch_and_bound.h"
#include "milp/model.h"

/// \file decompose.h
/// Constraint-graph decomposition of a MILP into independent subproblems.
///
/// DART's repair model S*(AC) is naturally block-structured: cells acquired
/// from different documents never share a ground constraint, and every
/// operator pin that presolve chases through the y-definition and big-M rows
/// deletes a vertex from the variable–constraint incidence graph, often
/// splitting what remains. Because the objective Σ wᵢδᵢ is separable and no
/// row spans two connected components, the MILP decomposes exactly:
///
///   min over the whole model  =  Σ over components (min over the component)
///
/// and a card-minimal repair of the database is the union of card-minimal
/// repairs of the components (cardinalities of disjoint variable sets add).
/// Branch-and-bound tree sizes multiply with instance size, so K components
/// of size N/K are asymptotically much cheaper to solve than one instance of
/// size N — and they can be solved concurrently, one serial search each
/// (SolveMilpBatch, branch_and_bound.h).
///
/// The decomposition is computed with a union-find pass over the rows
/// (O(nnz · α(n))), then one sub-Model per connected component is
/// materialized with index maps back to the input variable space. Variables
/// that occur in no row ("rowless") are not worth a branch-and-bound
/// instance: their optimal value is a bound chosen by objective sign, fixed
/// analytically here.

namespace dart::milp {

/// One connected component of the incidence graph, materialized as a
/// standalone sub-MILP. Variable and row order follow the input model's
/// order restricted to the component, so solves are deterministic.
struct Component {
  Model model;            ///< objective constant 0; same objective sense.
  std::vector<int> vars;  ///< local variable index → input-model index.
  std::vector<int> rows;  ///< local row index → input-model row index.
};

/// The result of DecomposeModel: components (largest-first), the analytic
/// assignment of rowless variables, and per-variable maps for lifting
/// component solutions back into the input variable space.
struct Decomposition {
  /// Components sorted by variable count, largest first, ties broken by the
  /// smallest contained variable index (deterministic). Solving largest
  /// first minimizes makespan when components run concurrently: the small
  /// blocks fill in behind the big one instead of the reverse.
  std::vector<Component> components;

  /// Input variable → component index, or -1 for rowless variables.
  std::vector<int> component_of_var;
  /// Input variable → local index within its component, or (for rowless
  /// variables) index into rowless_vars / rowless_values.
  std::vector<int> local_of_var;

  /// Variables occurring in no row, fixed analytically at the bound that
  /// optimizes the objective (integer variables at the nearest integral
  /// bound inside their box).
  std::vector<int> rowless_vars;
  std::vector<double> rowless_values;
  /// Objective contribution of the rowless assignment, in the model's sense
  /// (excludes the model's objective constant).
  double rowless_objective = 0;
  /// True when an integer rowless variable has no integral point in its box
  /// (the LP relaxation is feasible, the MILP is not).
  bool rowless_infeasible = false;

  /// True when a row with no terms is violated by its own rhs — the LP
  /// relaxation itself is empty (kLpRelaxationInfeasible).
  bool constant_row_infeasible = false;

  int largest_component_vars = 0;

  int num_components() const { return static_cast<int>(components.size()); }
};

/// Builds the variable–constraint incidence decomposition of `model`.
Decomposition DecomposeModel(const Model& model);

/// Materializes the decomposition's components as a SolveMilpBatch input, in
/// decomposition (largest-first) order. `initial_point`, when sized to the
/// input model's variable space, is split per component into the batch
/// entries' warm-start seeds; pass {} for cold starts. The returned
/// BatchModels point into `decomposition` — it must outlive them.
///
/// Factored out of SolveDecomposition so a *multi-document* caller
/// (repair/batch.h) can pool the components of several decompositions into
/// one fused SolveMilpBatch call.
std::vector<BatchModel> ComponentBatch(const Decomposition& decomposition,
                                       const std::vector<double>& initial_point);

/// Pure stitch of per-component results (in decomposition order, points in
/// component-local space) back into one MilpResult in the input variable
/// space: status precedence, objective/bound sums, rowless + component point
/// assembly, num_components / largest_component_vars. A decomposition with a
/// violated constant row short-circuits to kLpRelaxationInfeasible (`solved`
/// may then be empty). No gauges are published and wall_seconds is left 0 —
/// SolveDecomposition (and the batch repair path) layer those on top.
MilpResult StitchDecomposition(const Decomposition& decomposition,
                               const Model& model,
                               const std::vector<MilpResult>& solved);

/// Solves a decomposition of `model` (as returned by DecomposeModel on that
/// same model): solves the components with SolveMilpBatch (one serial search
/// each, up to num_threads at once), then stitches the per-component optima
/// back into one MilpResult in the input variable space — objective = Σ
/// component optima + rowless contribution + objective constant;
/// `num_components` / `largest_component_vars` filled in. Search counters
/// are not stitched: each component solve publishes its own milp.* registry
/// counters.
///
/// Status combination mirrors what a monolithic solve would report: any
/// component unbounded → kUnbounded; any component (or constant row) with an
/// empty LP relaxation → kLpRelaxationInfeasible; any integer-infeasible
/// component (or rowless variable) → kInfeasible; any early stop →
/// kNodeLimit; otherwise kOptimal.
///
/// A decomposition with exactly one component covering every variable is
/// passed through to SolveMilp on `model` directly (no rebuilt-model
/// overhead, identical search to the monolithic solver).
///
/// `component_results`, when non-null, receives the raw per-component
/// results (in decomposition order, points in component-local variable
/// space) — the repair engine uses them for per-component big-M retries.
MilpResult SolveDecomposition(const Decomposition& decomposition,
                              const Model& model, const MilpOptions& options,
                              std::vector<MilpResult>* component_results =
                                  nullptr);

/// Convenience: DecomposeModel + SolveDecomposition.
MilpResult SolveMilpDecomposed(const Model& model,
                               const MilpOptions& options = {});

}  // namespace dart::milp
