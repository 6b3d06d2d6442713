#pragma once

#include <map>
#include <optional>
#include <vector>

#include "constraints/ast.h"
#include "constraints/ground.h"
#include "milp/decompose.h"
#include "repair/engine.h"
#include "repair/translator.h"
#include "util/status.h"

/// \file incremental.h
/// Session-scoped incremental repair across validation-loop iterations
/// (paper Sec. 6.3). The from-scratch RepairEngine re-translates the
/// constraint set and re-solves the whole MILP on every iteration even
/// though an operator verdict only pins a handful of cells. This class
/// treats operator decisions as *active integrity constraints* with
/// localized effects (repAIrC, PAPERS.md): it translates S*(AC) once
/// *without* pins, decomposes it into connected components of the
/// variable–constraint incidence graph, and persists the translation, the
/// decomposition, every per-component optimum and every component's optimal
/// root LP basis across ComputeRepair calls. A new pin becomes the bound
/// change z = [v, v] on its component's persisted sub-model; only the
/// components touched by changed pins are marked dirty and re-solved
/// (warm-starting from their previous root basis); every clean component's
/// cached optimum is stitched back in exactly like SolveMilpBatch results
/// are. Iteration cost is therefore proportional to the dirty region, not
/// the database.
///
/// Exactness: the pinned model solved here is the same mathematical program
/// the translator would rebuild (a pin row z = v and the bound z ∈ [v, v]
/// have identical feasible sets; objective and all other rows are
/// untouched), and the per-component big-M enlargement below reproduces the
/// engine's retry semantics component-locally. RunValidationSession keeps
/// the from-scratch path selectable (SessionOptions::use_incremental =
/// false) as the exactness oracle; tests/incremental_test.cpp asserts
/// parity over seeds.
///
/// Big-M retries: when a dirty component comes back infeasible or its
/// optimum presses a |yᵢ| against 0.999·Mᵢ — both symptoms of a too-small
/// practical M — the component's M is enlarged ×100 *in place*: the y box
/// widens, the δ coefficients of the two big-M rows scale by 100
/// (Model::ScaleVarRowCoefficients) and unpinned z boxes widen. Clean
/// components are untouched — their cached optima already passed the
/// saturation test — which is the persisted-state equivalent of the
/// engine's "pin clean components on retry" machinery.
///
/// Observability (docs/observability.md): one `repair.incremental` span per
/// ComputeRepair call with `repair.attempt` solve rounds nested inside, and
/// the counters repair.incremental.dirty_components /
/// repair.incremental.clean_reused / repair.incremental.translate_skipped.

namespace dart::repair {

/// Incremental repair computations against one fixed database + constraint
/// set. Both must outlive the session (the validation loop holds them for
/// its whole run). Not thread-safe: one session serves one operator loop.
class IncrementalRepairSession {
 public:
  /// `options` are the same knobs the from-scratch engine takes. The
  /// decomposition happens unconditionally here (it *is* the incremental
  /// state); milp.decomposition.use_presolve is ignored — pins enter as
  /// bound changes, so there is no pin row for presolve to chase, and the
  /// persisted sub-models must keep a stable variable space across calls.
  IncrementalRepairSession(const rel::Database& db,
                           const cons::ConstraintSet& constraints,
                           RepairEngineOptions options = {});

  /// Computes a card-minimal repair honoring `fixed_values`, re-solving only
  /// the components whose pin set changed since the previous call. Contract
  /// matches RepairEngine::ComputeRepair: empty repair +
  /// `already_consistent` when the database satisfies AC and no pins are
  /// given; Status::Infeasible when no repair exists; `warm_start` seeds
  /// dirty components' incumbents (silently dropped when contradicted).
  /// Pins may be added, changed, or removed between calls; only the
  /// difference is re-solved.
  Result<RepairOutcome> ComputeRepair(
      const std::vector<FixedValue>& fixed_values = {},
      const Repair* warm_start = nullptr);

  /// True once the translation + decomposition exist (after the first
  /// ComputeRepair that needed a solve).
  bool initialized() const { return initialized_; }
  /// Components of the persisted decomposition (0 before initialization).
  int num_components() const;
  /// Components re-solved / reused by the most recent ComputeRepair.
  int last_dirty_components() const { return last_dirty_components_; }
  int last_clean_reused() const { return last_clean_reused_; }

  const RepairEngineOptions& options() const { return options_; }

 private:
  /// Last solve of one persisted component. `result.point` is in
  /// component-local variable space; `result.root_basis` warm-starts the
  /// next re-solve of this component.
  struct ComponentState {
    milp::MilpResult result;
    bool dirty = true;
  };

  /// Grounds S(AC) once per session; by steadiness the ground program
  /// stays valid for every call's fast path, translation and verification.
  Status Ground(obs::RunContext* run);
  Status Initialize(obs::RunContext* run);
  Status ApplyPinDiff(const std::vector<FixedValue>& fixed_values);
  /// Enlarges `component`'s big-M ×100 in place (y boxes, big-M row
  /// coefficients, unpinned z boxes).
  void GrowComponentBigM(int component);

  const rel::Database* db_;
  const cons::ConstraintSet* constraints_;
  RepairEngineOptions options_;

  std::optional<cons::GroundProgram> ground_;
  bool initialized_ = false;
  Translation translation_;
  milp::Decomposition decomposition_;
  std::vector<ComponentState> components_;

  std::map<rel::CellRef, int> cell_index_;
  /// Model variable index → cell index for z variables (-1 for y/δ);
  /// lets the verify step evaluate ground rows on a cell-value vector.
  std::vector<int> cell_of_zvar_;
  std::vector<int> component_of_cell_;
  std::vector<std::vector<int>> cells_of_component_;
  /// Current per-cell big-M (grows ×100 on component retries) and current
  /// z-box half-width (same growth), both seeded from the translation.
  std::vector<double> cell_big_m_;
  std::vector<double> cell_z_box_;

  /// Pins currently folded into the sub-models, cell index → value.
  std::map<int, double> applied_pins_;

  int last_dirty_components_ = 0;
  int last_clean_reused_ = 0;
};

}  // namespace dart::repair
