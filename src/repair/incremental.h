#pragma once

#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "constraints/ast.h"
#include "constraints/ground.h"
#include "repair/engine.h"
#include "repair/translator.h"
#include "util/status.h"

/// \file incremental.h
/// The repair core (paper Sec. 6.3). Every repair path — the one-shot
/// RepairEngine::ComputeRepair, the fused ComputeRepairBatch, and the
/// supervised validation loop — runs this session's round loop:
///
///   1. ground each document once (or reuse the caller's ground program); a
///      document with no pins that already satisfies AC stops here;
///   2. translate S*(AC) once, *without* pins, and decompose it into the
///      connected components of its variable–constraint incidence graph
///      (use_components = false: one component holding every variable);
///   3. apply the operator's pins as bound changes z ∈ [v, v] on the pinned
///      cell's component — only components whose pins changed since the
///      previous call become dirty;
///   4. solve every dirty component of every document in one SolveMilpBatch
///      (or, with use_exhaustive_solver, each by binary enumeration),
///      skipping components whose current values already satisfy them;
///   5. grow big-M ×100 *in place* on each component that came back
///      infeasible or pressed a |yᵢ| against 0.999·Mᵢ (both symptoms of a
///      too-small practical M), and re-solve only those components;
///   6. stitch each document's component optima (milp::StitchDecomposition),
///      extract the repair and verify it against the ground program rows.
///
/// Operator decisions are thus *active integrity constraints* with localized
/// effects (repAIrC, PAPERS.md): the translation, the decomposition, every
/// per-component optimum and every component's optimal root LP basis
/// persist across ComputeRepair calls, so a validation-loop iteration costs
/// only the components its newest pins touched, each warm-started from its
/// previous root basis.
///
/// Exactness: the bound z ∈ [v, v] has the feasible set of a pin row z = v,
/// and growing M in place (widen the y box, scale the δ coefficients of the
/// two big-M rows, widen unpinned z boxes) builds the model the translator
/// would with a ×100 M. tests/repair_parity_test.cpp holds the no-pin
/// repairs and the pinned optima to those of the engine this core replaced.
///
/// Observability (docs/observability.md): one root span per call —
/// repair.incremental, or repair.compute / repair.batch / repair.cqa for the
/// other entry points — holding repair.ground, repair.translate and
/// repair.decompose on a document's first call, one repair.attempt per solve
/// round with its repair.solve, and one repair.verify per repaired document;
/// RangeForms adds one repair.probe around its probe batch; the counters
/// repair.incremental.dirty_components / .clean_reused / .translate_skipped.

namespace dart::repair {

/// One document of a session. `db` (and `ground`, when given) must outlive
/// the session.
struct SessionDocument {
  const rel::Database* db = nullptr;
  /// `GroundConstraintProgram(*db, constraints)`, shared by the caller; null
  /// = the session grounds the document once, on first use.
  const cons::GroundProgram* ground = nullptr;
  /// Per-document confidence weights, appended to options.translator.weights
  /// (cells not listed cost 1).
  std::vector<CellWeight> weights;
};

/// A linear form over repaired cell values: constant + Σ coefficient·z(id),
/// over measure-cell ids (rel::Database::MeasureCellId).
struct CellForm {
  std::vector<std::pair<int, double>> terms;
  double constant = 0;
};

/// The range of one CellForm over every optimal repair.
struct FormRange {
  double min = 0;
  double max = 0;
};

/// Repair computations against fixed documents and one constraint set, which
/// must outlive the session. Not thread-safe: one session serves one caller
/// (an operator loop, a one-shot repair, a batch).
class IncrementalRepairSession {
 public:
  IncrementalRepairSession(const rel::Database& db,
                           const cons::ConstraintSet& constraints,
                           RepairEngineOptions options = {});
  IncrementalRepairSession(std::vector<SessionDocument> documents,
                           const cons::ConstraintSet& constraints,
                           RepairEngineOptions options = {});
  ~IncrementalRepairSession();

  /// Computes a card-minimal repair of a one-document session honoring
  /// `fixed_values`, re-solving only the components whose pin set changed
  /// since the previous call. Contract matches RepairEngine::ComputeRepair:
  /// empty repair + `already_consistent` when the database satisfies AC and
  /// no pins are given; Status::Infeasible when no repair exists;
  /// InvalidArgument for a NaN or infinite pin or a pin on a cell outside
  /// the translation; `warm_start` seeds dirty components' incumbents
  /// (silently dropped when contradicted). Pins may be added, changed, or
  /// removed between calls, and the session survives a failed call.
  Result<RepairOutcome> ComputeRepair(
      const std::vector<FixedValue>& fixed_values = {},
      const Repair* warm_start = nullptr);

  /// The round loop over every document: `fixed_values[d]` and
  /// `warm_starts[d]` belong to document d (an empty vector means none for
  /// any document). Returns one result per document, in order; a failing
  /// document fails only its own slot. `span` names the call's root span;
  /// an empty name opens none (the caller's current span holds the loop).
  std::vector<Result<RepairOutcome>> ComputeRepairs(
      const std::vector<std::vector<FixedValue>>& fixed_values,
      const std::vector<const Repair*>& warm_starts = {},
      std::string_view span = "repair.incremental");

  /// Ranges every form over all optimal repairs of document `document` under
  /// the pins of the last call, which must have succeeded for it. Σ wᵢδᵢ is
  /// separable, so a repair is optimal iff every component sits at its own
  /// optimum k*_c: each component a form touches is probed (min and max) on a
  /// clone of its current model capped at k*_c and seeded with its repair
  /// optimum, all probes in one SolveMilpBatch. Components with k*_c = 0 and
  /// already-consistent documents give points without a solve. Fails with
  /// InvalidArgument for an unknown cell id, FailedPrecondition
  /// when the last call did not repair the document or a probe stopped early.
  Result<std::vector<FormRange>> RangeForms(const std::vector<CellForm>& forms,
                                            size_t document = 0);

  /// True once every document's translation and decomposition exist (after
  /// the first call that needed a solve).
  bool initialized() const;
  /// Components of the persisted decompositions (0 before initialization).
  int num_components() const;
  /// Components re-solved / reused by the most recent call.
  int last_dirty_components() const { return last_dirty_components_; }
  int last_clean_reused() const { return last_clean_reused_; }

  const RepairEngineOptions& options() const { return options_; }

 private:
  struct Document;

  const cons::ConstraintSet* constraints_;
  RepairEngineOptions options_;
  /// Σ wᵢδᵢ is integral on every integral point when every weight of every
  /// document is an integer; the solver then rounds its bounds.
  bool integral_objective_ = true;
  std::vector<std::unique_ptr<Document>> documents_;
  int last_dirty_components_ = 0;
  int last_clean_reused_ = 0;
};

}  // namespace dart::repair
