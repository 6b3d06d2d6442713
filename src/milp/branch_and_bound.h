#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "milp/model.h"
#include "milp/simplex.h"
#include "obs/context.h"

/// \file branch_and_bound.h
/// Branch-and-bound MILP solver on top of the simplex LP relaxation. This is
/// DART's stand-in for the commercial LINDO API the paper used (Sec. 6.3);
/// any exact solver returns the same optimal objective, which is what the
/// card-minimal repair semantics needs.
///
/// Every search is serial: one model, one best-first (or depth-first) tree,
/// one thread. Parallelism lives one level up — SolveMilpBatch searches
/// independent models (the connected components of S*(AC), decompose.h)
/// concurrently, one search per model — so a result never depends on the
/// thread count: same point, same node count, same LP iterations.

namespace dart::milp {

/// Branching-variable selection rule (ablated in bench_solver_ablation).
enum class BranchRule {
  kMostFractional,  ///< fractional part closest to 1/2.
  kFirstFractional, ///< lowest variable index.
};

/// Node exploration order (ablated in bench_solver_ablation).
enum class NodeOrder {
  kBestFirst,   ///< lowest parent bound first (best-bound search).
  kDepthFirst,  ///< LIFO dive.
};

/// Knobs of the branch-and-bound search itself (MilpOptions::search). These
/// used to be loose fields on MilpOptions; they are grouped so call sites
/// configure the search in one place instead of re-plumbing individual
/// flags.
struct SearchOptions {
  /// Models SolveMilpBatch searches at once (values < 1 are treated as 1).
  /// Each model is still searched serially, so results are identical at
  /// every thread count; a single SolveMilp call ignores this knob.
  int num_threads = 1;
  /// Warm-start node LP re-solves from the parent node's optimal basis via
  /// dual simplex pivots (see SolveLpWarm). A child differs from its parent
  /// in exactly one variable bound, so the parent basis stays dual-feasible
  /// and the child typically re-solves in a handful of pivots. Ablation
  /// switch (bench_warmstart_ablation); off forces cold solves at every node.
  bool use_warm_start = true;
  /// Hard cap on explored nodes (0 = unlimited).
  int64_t max_nodes = 0;
  /// Attempt a cheap round-to-nearest incumbent at every node.
  bool rounding_heuristic = true;
  BranchRule branch_rule = BranchRule::kMostFractional;
  NodeOrder node_order = NodeOrder::kBestFirst;
  /// Optional warm basis for the *root* LP (a previous solve's optimal root
  /// basis, see MilpResult::root_basis). The root re-solves from it with
  /// dual pivots exactly like a child node warm-starts from its parent;
  /// shape mismatches and stale snapshots are ignored / fall back to a cold
  /// solve, so a caller can always pass whatever it captured last. Consumed
  /// by SolveMilp only — the batch entry point takes a per-model basis via
  /// BatchModel::root_basis instead.
  std::shared_ptr<const LpBasis> root_basis;
};

/// Knobs of the model-shrinking stages that run before the search
/// (MilpOptions::decomposition). Read by the repair core
/// (repair/incremental.h) — SolveMilp itself never decomposes.
struct DecompositionOptions {
  /// Not read by the repair core, which takes operator pins as bound
  /// changes rather than rows to presolve away. Kept only because
  /// perfbench's decompose replay (perfbench/stages.cpp) still selects
  /// milp::Presolve with it.
  bool use_presolve = true;
  /// Split the model into connected components of the variable–constraint
  /// incidence graph and solve them concurrently, one serial search per
  /// component (decompose.h). Cells from different acquired documents never
  /// share a ground row, so repair instances are block-structured; big-M
  /// grows per component. Off = one component holding every variable.
  bool use_components = true;
};

struct MilpOptions {
  LpOptions lp;
  /// Search knobs (threads, warm starts, node limit, branching).
  SearchOptions search;
  /// Pre-search model shrinking (connected components).
  DecompositionOptions decomposition;
  /// Integrality tolerance.
  double int_tol = 1e-6;
  /// When the objective provably takes integer values on integral points
  /// (true for S*(AC): it is a sum of binaries), bounds are rounded up,
  /// which substantially tightens pruning.
  bool objective_is_integral = false;
  /// Optional warm start: a point to try as the initial incumbent (snapped
  /// and feasibility-checked; silently ignored when the size is wrong or the
  /// point infeasible). Typical source: the previous validation-loop
  /// iteration's accepted solution.
  std::vector<double> initial_point;
  /// Observability sink (nullptr = no-op). This is the ONLY place solver
  /// search counters surface: every solve publishes milp.solves, milp.nodes,
  /// milp.lp_iterations, milp.lp_warm_solves and the milp.lp.* kernel
  /// internals into the registry and opens a milp.search span (under a
  /// milp.instance span per batch model). Callers wanting per-solve counts
  /// attach a RunContext and diff MetricsSnapshot::DeltaSince around the
  /// call. See docs/observability.md for the full metric reference.
  obs::RunContext* run = nullptr;
};

struct MilpResult {
  enum class SolveStatus {
    kOptimal,
    kInfeasible,   ///< LP relaxations were feasible but no integral point is.
    kNodeLimit,    ///< stopped early; `point` holds the incumbent if any.
    kUnbounded,
    /// Not even the continuous relaxation has a feasible point (every node's
    /// LP was infeasible) — a strictly stronger certificate than kInfeasible.
    kLpRelaxationInfeasible,
  };

  SolveStatus status = SolveStatus::kInfeasible;
  /// Objective of the incumbent, in the model's sense.
  double objective = 0;
  std::vector<double> point;
  /// True iff `point` holds a feasible integral solution.
  bool has_incumbent = false;
  /// Best proven bound on the optimum (equal to `objective` when optimal).
  double best_bound = 0;

  // Statistics. Search counters (node counts, LP iterations, warm solves)
  // live exclusively in the obs registry now — attach MilpOptions::run and
  // read the milp.* counters; the legacy convenience fields were retired
  // once every caller migrated.
  //
  /// Wall-clock seconds spent inside the solve (search only, not model
  /// construction).
  double wall_seconds = 0;
  /// Connected components the model split into (1 unless the solve went
  /// through SolveMilpDecomposed, see decompose.h).
  int num_components = 1;
  /// Variable count of the largest component (0 when not decomposed).
  int largest_component_vars = 0;
  /// Optimal basis of the root LP relaxation, captured when warm starts are
  /// on and the root LP solved to optimality (null otherwise). Feeding it
  /// back through SearchOptions::root_basis / BatchModel::root_basis lets a
  /// re-solve of the same (or slightly perturbed) model skip the cold root
  /// factorization — the incremental repair session's cross-iteration warm
  /// start.
  std::shared_ptr<const LpBasis> root_basis;
};

const char* MilpStatusName(MilpResult::SolveStatus status);

/// True for both infeasibility flavours (kInfeasible and
/// kLpRelaxationInfeasible).
bool IsInfeasibleStatus(MilpResult::SolveStatus status);

/// Solves `model` to proven optimality (or until the node limit) with one
/// serial search.
MilpResult SolveMilp(const Model& model, const MilpOptions& options = {});

/// One model of a SolveMilpBatch call plus its (optional) warm starts.
/// `initial_point` is used instead of MilpOptions::initial_point, which the
/// batch entry point ignores (a single point cannot fit several models).
struct BatchModel {
  const Model* model = nullptr;
  std::vector<double> initial_point;
  /// Optional warm basis for this model's root LP (a previous solve's
  /// MilpResult::root_basis). Shape-checked against the model; mismatches
  /// are ignored. Per-model analogue of SearchOptions::root_basis, which the
  /// batch entry point does not consult.
  std::shared_ptr<const LpBasis> root_basis;
};

/// Solves every model of `models` and returns one MilpResult per model, in
/// input order. Each model is one serial SolveMilp search; up to
/// options.search.num_threads of them run at once, largest model (by
/// variable count) dealt first. Every result — and every registry delta —
/// is therefore identical at every thread count.
///
/// The shared options apply per model: max_nodes caps each model's own
/// search, an unbounded model reports kUnbounded without stopping the
/// others, and wall_seconds is each model's own search time. Counters are
/// published after all searches finish, in input order; each search's
/// milp.search span nests under a milp.instance span parented to the
/// caller's current span.
std::vector<MilpResult> SolveMilpBatch(const std::vector<BatchModel>& models,
                                       const MilpOptions& options);

}  // namespace dart::milp
