#include "repair/batch.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "constraints/eval.h"
#include "milp/decompose.h"
#include "milp/presolve.h"
#include "obs/context.h"
#include "util/task_pool.h"

namespace dart::repair {

namespace {

double Seconds(std::chrono::steady_clock::time_point begin,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// One document's mutable state across the batch's big-M retry rounds. Lives
/// in a vector sized once up front, so pointers into it (notably
/// BatchModel::model into ctx.decomposition.components) stay valid for the
/// round that takes them.
struct DocState {
  const BatchRepairRequest* request = nullptr;
  TranslatorOptions translator_options;  ///< base + per-document weights.
  std::vector<FixedValue> retry_pins;
  std::set<rel::CellRef> pinned_cells;
  /// Set once the document leaves the batch (repaired, consistent, or
  /// failed); unset documents re-enter the next round.
  std::optional<Result<RepairOutcome>> result;
  RepairOutcome outcome;
  /// Per-round scratch, rebuilt by Prepare each round.
  std::optional<Translation> translation;
  internal::AttemptContext ctx;
  /// Model the decomposition was built over (the translation's model, or the
  /// presolve-reduced one); null when presolve proved infeasibility.
  const milp::Model* target = nullptr;
  milp::MilpResult solved;
  double translate_seconds = 0;

  bool finished() const { return result.has_value(); }
};

/// Translate + presolve + decompose one document for the current round.
/// Pure w.r.t. shared state (writes only into `doc`), so the per-document
/// prepares of one round run concurrently on the pool.
void Prepare(DocState& doc, bool use_presolve) {
  const auto t0 = std::chrono::steady_clock::now();
  doc.translation.reset();
  doc.ctx = internal::AttemptContext{};
  doc.target = nullptr;
  doc.solved = milp::MilpResult{};

  Result<Translation> translated =
      TranslateGrounded(*doc.request->db, *doc.request->ground,
                        doc.translator_options, doc.retry_pins);
  if (!translated.ok()) {
    doc.result = translated.status();
    return;
  }
  doc.translation.emplace(std::move(translated).value());
  doc.target = &doc.translation->model;

  if (use_presolve) {
    // Same tolerance dance as the engine: 6-decimal snapped retry pins leave
    // constant-row residuals up to the 1e-6 consistency tolerance.
    milp::PresolveOptions presolve_options;
    if (!doc.retry_pins.empty()) presolve_options.tol = 1e-6;
    doc.ctx.presolved = milp::Presolve(*doc.target, presolve_options);
    doc.ctx.used_presolve = true;
    if (doc.ctx.presolved.infeasible) {
      doc.solved.status = milp::MilpResult::SolveStatus::kInfeasible;
      doc.solved.presolve_variables_eliminated =
          doc.ctx.presolved.variables_eliminated;
      doc.solved.presolve_rows_removed = doc.ctx.presolved.rows_removed;
      doc.target = nullptr;  // no components this round
      doc.translate_seconds =
          Seconds(t0, std::chrono::steady_clock::now());
      return;
    }
    doc.target = &doc.ctx.presolved.reduced;
  }
  doc.ctx.decomposition = milp::DecomposeModel(*doc.target);
  doc.ctx.decomposed = true;
  doc.translate_seconds = Seconds(t0, std::chrono::steady_clock::now());
}

}  // namespace

std::vector<Result<RepairOutcome>> ComputeRepairBatch(
    const std::vector<BatchRepairRequest>& requests,
    const cons::ConstraintSet& constraints,
    const RepairEngineOptions& options) {
  obs::RunContext* const run =
      options.run != nullptr ? options.run : options.milp.run;
  obs::Span batch_span(run, "repair.batch");

  std::vector<DocState> docs(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    docs[i].request = &requests[i];
    docs[i].translator_options = options.translator;
    docs[i].translator_options.weights.insert(
        docs[i].translator_options.weights.end(), requests[i].weights.begin(),
        requests[i].weights.end());
    if (requests[i].db == nullptr || requests[i].ground == nullptr) {
      docs[i].result = Status::InvalidArgument(
          "BatchRepairRequest requires non-null db and ground program");
    }
  }

  // Consistency fast path per document: the shared ground program makes
  // detection a linear evaluation, no grounding work here.
  for (DocState& doc : docs) {
    if (doc.finished()) continue;
    Result<std::vector<cons::Violation>> violations =
        cons::EvaluateGroundProgram(*doc.request->db, *doc.request->ground);
    if (!violations.ok()) {
      doc.result = violations.status();
    } else if (violations.value().empty()) {
      doc.outcome.already_consistent = true;
      doc.result = std::move(doc.outcome);
    }
  }

  // The fused path needs per-component metadata; without decomposition (or
  // with the exhaustive baseline) fall back to the engine, one document at a
  // time, still sharing the caller's ground programs.
  if (options.use_exhaustive_solver ||
      !options.milp.decomposition.use_components) {
    for (DocState& doc : docs) {
      if (doc.finished()) continue;
      RepairEngineOptions doc_options = options;
      doc_options.translator = doc.translator_options;
      const RepairEngine engine(std::move(doc_options));
      doc.result = engine.ComputeRepair(*doc.request->db, constraints, {},
                                        nullptr, doc.request->ground);
    }
  }

  milp::MilpOptions milp_options = options.milp;
  milp_options.run = run;
  // Shared solver options, so the integral-objective certificate must hold
  // for every document of the batch (conservative: one fractional weight
  // anywhere disables rounding for all).
  bool integral_objective = true;
  for (const DocState& doc : docs) {
    for (const CellWeight& weight : doc.translator_options.weights) {
      if (weight.weight != std::floor(weight.weight)) {
        integral_objective = false;
      }
    }
  }
  milp_options.objective_is_integral = integral_objective;
  const int num_threads = std::max(1, milp_options.search.num_threads);

  for (int attempt = 0; attempt <= options.max_bigm_retries; ++attempt) {
    std::vector<size_t> active;
    for (size_t i = 0; i < docs.size(); ++i) {
      if (!docs[i].finished()) active.push_back(i);
    }
    if (active.empty()) break;

    obs::Span attempt_span(run, "repair.attempt");
    obs::Count(run, "repair.attempts");

    // Round prep — translate, presolve, decompose every active document.
    // All three are pure functions of the (immutable) request + per-doc
    // options, so they fan out across the pool; each worker writes only its
    // own document's slot.
    {
      obs::Span translate_span(run, "repair.translate");
      const bool use_presolve = milp_options.decomposition.use_presolve;
      util::ParallelFor(num_threads, active, [&](size_t doc_index) {
        Prepare(docs[doc_index], use_presolve);
      });
    }

    // Pool every component of every prepared document into one batch;
    // SolveMilpBatch deals the largest model first across documents.
    struct Slot {
      size_t doc;
      size_t comp;
    };
    std::vector<milp::BatchModel> batch;
    std::vector<Slot> slots;
    for (size_t doc_index : active) {
      DocState& doc = docs[doc_index];
      if (doc.finished() || !doc.ctx.decomposed) continue;
      if (doc.ctx.decomposition.constant_row_infeasible) continue;
      std::vector<milp::BatchModel> doc_batch =
          milp::ComponentBatch(doc.ctx.decomposition, {});
      for (size_t c = 0; c < doc_batch.size(); ++c) {
        batch.push_back(std::move(doc_batch[c]));
        slots.push_back(Slot{doc_index, c});
      }
    }

    // ONE fused solve for the whole round.
    double batch_wall = 0;
    std::vector<milp::MilpResult> component_solutions;
    if (!batch.empty()) {
      obs::Span solve_span(run, "repair.solve");
      const auto s0 = std::chrono::steady_clock::now();
      component_solutions = milp::SolveMilpBatch(batch, milp_options);
      batch_wall = Seconds(s0, std::chrono::steady_clock::now());
    }

    // Scatter the component results back to their documents and stitch each
    // document's slice exactly as SolveDecomposition would have.
    for (size_t doc_index : active) {
      DocState& doc = docs[doc_index];
      if (doc.finished() || !doc.ctx.decomposed) continue;
      doc.ctx.component_results.assign(doc.ctx.decomposition.components.size(),
                                       milp::MilpResult{});
    }
    for (size_t k = 0; k < component_solutions.size(); ++k) {
      docs[slots[k].doc].ctx.component_results[slots[k].comp] =
          std::move(component_solutions[k]);
    }

    for (size_t doc_index : active) {
      DocState& doc = docs[doc_index];
      if (doc.finished()) continue;  // translation failed during prep
      if (doc.ctx.decomposed) {
        milp::MilpResult stitched = milp::StitchDecomposition(
            doc.ctx.decomposition, *doc.target, doc.ctx.component_results);
        // The round's components run together across documents; every
        // document records the round's batch wall (see batch.h).
        stitched.wall_seconds = batch_wall;
        if (doc.ctx.used_presolve) {
          if (stitched.has_incumbent) {
            stitched.point = doc.ctx.presolved.RestorePoint(stitched.point);
          }
          stitched.presolve_variables_eliminated =
              doc.ctx.presolved.variables_eliminated;
          stitched.presolve_rows_removed = doc.ctx.presolved.rows_removed;
        }
        doc.solved = std::move(stitched);
      }
      // else: presolve proved infeasibility; doc.solved already carries the
      // synthetic kInfeasible result and DecideBigMRetry's non-decomposed
      // branch mirrors the engine.

      internal::RecordAttemptStats(*doc.translation, doc.solved,
                                   doc.translate_seconds, batch_wall, attempt,
                                   &doc.outcome.stats, run);

      const internal::RetryDecision decision =
          internal::DecideBigMRetry(*doc.translation, doc.ctx, doc.solved);
      if (decision.grow_m_and_retry && attempt < options.max_bigm_retries) {
        obs::Count(run, "repair.bigm_retries");
        if (decision.pin_clean_components) {
          internal::AppendCleanComponentPins(
              *doc.request->db, *doc.translation, doc.ctx,
              decision.component_dirty, &doc.pinned_cells, &doc.retry_pins);
        }
        const double base = doc.translator_options.big_m.fixed_value > 0
                                ? doc.translator_options.big_m.fixed_value
                                : doc.translation->practical_m;
        doc.translator_options.big_m.fixed_value = base * 100.0;
        continue;  // re-enters next round's batch
      }

      Result<Repair> repair = internal::FinalizeAttempt(
          *doc.request->db, *doc.request->ground, *doc.translation, doc.solved,
          doc.translator_options.weights.empty(), options.verify_result, {},
          run);
      if (!repair.ok()) {
        doc.result = repair.status();
      } else {
        doc.outcome.repair = std::move(repair).value();
        doc.result = std::move(doc.outcome);
      }
    }
  }

  std::vector<Result<RepairOutcome>> out;
  out.reserve(docs.size());
  for (DocState& doc : docs) {
    DART_CHECK_MSG(doc.finished(),
                   "batch repair round loop exited with an unfinished doc");
    out.push_back(std::move(*doc.result));
  }
  return out;
}

}  // namespace dart::repair
