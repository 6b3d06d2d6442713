#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>

#include "constraints/ground.h"
#include "constraints/parser.h"
#include "constraints/steady.h"
#include "repair/batch.h"
#include "util/task_pool.h"

namespace dart::core {

DartPipeline::DartPipeline(std::unique_ptr<AcquisitionMetadata> metadata,
                           PipelineOptions options,
                           cons::ConstraintSet constraints)
    : metadata_(std::move(metadata)),
      options_(options),
      constraints_(std::move(constraints)),
      wrapper_(&metadata_->catalog, metadata_->patterns, metadata_->matcher,
               metadata_->table_positions),
      generator_(metadata_->mappings, metadata_->patterns) {}

Result<DartPipeline> DartPipeline::Create(AcquisitionMetadata metadata,
                                          PipelineOptions options) {
  // One RunContext serves every layer: thread the pipeline's sink into every
  // nested option struct here, once — the matcher's and the repair engine's
  // (the validation session falls back to engine.run, so pipeline.run set
  // only at this top level still reaches the milp.* counters). Per-call
  // copies elsewhere would drift; this is the single propagation point.
  if (options.run != nullptr && metadata.matcher.run == nullptr) {
    metadata.matcher.run = options.run;
  }
  if (options.run != nullptr && options.engine.run == nullptr) {
    options.engine.run = options.run;
  }
  // Scheme declared by the mappings.
  rel::DatabaseSchema schema;
  if (metadata.mappings.empty()) {
    return Status::InvalidArgument("metadata declares no relation mappings");
  }
  for (const dbgen::RelationMapping& mapping : metadata.mappings) {
    DART_RETURN_IF_ERROR(dbgen::ValidateRelationMapping(mapping));
    DART_RETURN_IF_ERROR(schema.AddRelation(mapping.schema));
  }
  for (const wrap::RowPattern& pattern : metadata.patterns) {
    DART_RETURN_IF_ERROR(wrap::ValidateRowPattern(metadata.catalog, pattern));
  }
  // Constraint program, then the steadiness gate of Def. 6 — DART accepts
  // only constraint sets it can translate to MILP.
  cons::ConstraintSet constraints;
  DART_RETURN_IF_ERROR(cons::ParseConstraintProgram(
      schema, metadata.constraint_program, &constraints));
  DART_RETURN_IF_ERROR(cons::RequireAllSteady(schema, constraints));

  DartPipeline pipeline(
      std::make_unique<AcquisitionMetadata>(std::move(metadata)), options,
      std::move(constraints));
  DART_RETURN_IF_ERROR(pipeline.wrapper_.matcher().status());
  DART_RETURN_IF_ERROR(pipeline.generator_.status());
  return pipeline;
}

Result<AcquisitionOutcome> DartPipeline::Acquire(
    const std::string& html) const {
  obs::Span acquire_span(options_.run, "pipeline.acquire");
  obs::Span wrap_span(options_.run, "acquire.wrap");
  DART_ASSIGN_OR_RETURN(wrap::ExtractionResult extraction,
                        wrapper_.ExtractFromHtml(html));
  wrap_span.End();
  obs::Span generate_span(options_.run, "acquire.generate");
  DART_ASSIGN_OR_RETURN(dbgen::GenerationReport report,
                        generator_.Generate(extraction.MatchedInstances()));
  generate_span.End();
  obs::Count(options_.run, "pipeline.documents_acquired");
  AcquisitionOutcome outcome;
  outcome.database = std::move(report.database);
  outcome.extraction = extraction.stats;
  outcome.skipped_rows = report.skipped_rows;
  outcome.warnings = std::move(report.warnings);
  outcome.confidences = std::move(report.confidences);
  return outcome;
}

repair::RepairEngineOptions DartPipeline::EngineOptionsFor(
    const std::vector<dbgen::CellConfidence>& confidences) const {
  // options_.engine.run was already aimed at the pipeline's context by
  // Create — the single propagation point — so only the weights vary here.
  repair::RepairEngineOptions engine_options = options_.engine;
  std::vector<repair::CellWeight> weights = ConfidenceWeights(confidences);
  engine_options.translator.weights.insert(
      engine_options.translator.weights.end(),
      std::make_move_iterator(weights.begin()),
      std::make_move_iterator(weights.end()));
  return engine_options;
}

std::vector<repair::CellWeight> DartPipeline::ConfidenceWeights(
    const std::vector<dbgen::CellConfidence>& confidences) const {
  std::vector<repair::CellWeight> weights;
  if (!options_.use_confidence_weights) return weights;
  for (const dbgen::CellConfidence& confidence : confidences) {
    if (confidence.score >= 1.0) continue;  // default weight 1
    weights.push_back(repair::CellWeight{
        confidence.cell,
        std::max(options_.min_confidence_weight, confidence.score)});
  }
  return weights;
}

Result<AcquisitionOutcome> DartPipeline::AcquirePositional(
    const acquire::PositionalDocument& document) const {
  DART_ASSIGN_OR_RETURN(std::string html, acquire::ConvertToHtml(document));
  return Acquire(html);
}

Result<ProcessOutcome> DartPipeline::Submit(
    const ProcessRequest& request) const {
  if (request.positional.has_value()) {
    DART_ASSIGN_OR_RETURN(std::string html,
                          acquire::ConvertToHtml(*request.positional));
    return Submit(ProcessRequest::FromHtml(std::move(html), request.id));
  }
  const std::string& html = request.html;
  obs::Span process_span(options_.run, "pipeline.process");
  ProcessOutcome outcome;
  DART_ASSIGN_OR_RETURN(outcome.acquisition, Acquire(html));

  // Ground once; the grounding serves detection here and every translate /
  // verify inside the engine (it is repair-invariant by steadiness, Def. 6).
  obs::Span detect_span(options_.run, "pipeline.detect");
  DART_ASSIGN_OR_RETURN(
      cons::GroundProgram ground,
      cons::GroundConstraintProgram(outcome.acquisition.database,
                                    constraints_));
  obs::Count(options_.run, "repair.groundings");
  DART_ASSIGN_OR_RETURN(outcome.violations,
                        cons::EvaluateGroundProgram(
                            outcome.acquisition.database, ground));
  detect_span.End();
  obs::SetGauge(options_.run, "pipeline.violations",
                static_cast<double>(outcome.violations.size()));

  obs::Span repair_span(options_.run, "pipeline.repair");
  repair::RepairEngine engine(
      EngineOptionsFor(outcome.acquisition.confidences));
  DART_ASSIGN_OR_RETURN(
      outcome.repair,
      engine.ComputeRepair(outcome.acquisition.database, constraints_, {},
                           nullptr, &ground));
  repair_span.End();

  obs::Span apply_span(options_.run, "pipeline.apply");
  DART_ASSIGN_OR_RETURN(
      outcome.repaired,
      outcome.repair.repair.Applied(outcome.acquisition.database));
  return outcome;
}

BatchOutcome DartPipeline::SubmitBatch(const BatchRequest& request) const {
  const auto t0 = std::chrono::steady_clock::now();
  obs::Span batch_span(options_.run, "pipeline.batch");
  const int64_t batch_span_id = batch_span.id();

  BatchOutcome batch;
  obs::SetGauge(options_.run, "pipeline.batch.documents",
                static_cast<double>(request.documents.size()));
  if (request.documents.empty()) return batch;

  struct DocSlot {
    /// Terminal per-document error, if any stage failed.
    std::optional<Result<ProcessOutcome>> result;
    std::optional<ProcessOutcome> partial;
    std::optional<cons::GroundProgram> ground;
  };
  std::vector<DocSlot> slots(request.documents.size());

  // Phase 0 — per-slot geometric reconstruction of positional documents (a
  // failed reconstruction occupies its slot with that specific error) and id
  // assignment: empty request ids become the slot index.
  std::vector<std::string> ids(request.documents.size());
  std::vector<std::string> htmls(request.documents.size());
  for (size_t i = 0; i < request.documents.size(); ++i) {
    const ProcessRequest& doc = request.documents[i];
    ids[i] = doc.id.empty() ? "#" + std::to_string(i) : doc.id;
    if (doc.positional.has_value()) {
      Result<std::string> html = acquire::ConvertToHtml(*doc.positional);
      if (html.ok()) {
        htmls[i] = std::move(html).value();
      } else {
        slots[i].result = html.status();
      }
    } else {
      htmls[i] = doc.html;
    }
  }

  // Largest-document-first dealing: the biggest acquisitions start first so
  // a giant document picked up late cannot leave the other workers idle
  // behind it. Slots already failed by reconstruction are skipped.
  std::vector<size_t> order;
  order.reserve(htmls.size());
  for (size_t i = 0; i < htmls.size(); ++i) {
    if (!slots[i].result.has_value()) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return htmls[a].size() > htmls[b].size();
  });
  const int num_threads =
      std::max(1, options_.engine.milp.search.num_threads);

  // Phase 1 — per-document acquisition + grounding + detection, fanned out
  // by ParallelFor. All shared state (compiled patterns, catalog,
  // parsed constraints) is immutable and used via const access.
  const util::TaskPoolStats pool_stats = util::ParallelFor(
      num_threads, order, [&](size_t i) {
        // Workers other than the calling thread carry no span stack, so nest
        // this document under the batch span by explicit parent id; Acquire's
        // own pipeline.acquire span then parents here automatically.
        obs::Span doc_span(options_.run, "pipeline.batch.document",
                           batch_span_id);
        DocSlot& slot = slots[i];
        Result<AcquisitionOutcome> acquired = Acquire(htmls[i]);
        if (!acquired.ok()) {
          slot.result = acquired.status();
          return;
        }
        ProcessOutcome partial;
        partial.acquisition = std::move(acquired).value();

        obs::Span detect_span(options_.run, "pipeline.detect");
        Result<cons::GroundProgram> ground = cons::GroundConstraintProgram(
            partial.acquisition.database, constraints_);
        if (!ground.ok()) {
          slot.result = ground.status();
          return;
        }
        obs::Count(options_.run, "repair.groundings");
        Result<std::vector<cons::Violation>> violations =
            cons::EvaluateGroundProgram(partial.acquisition.database,
                                        ground.value());
        if (!violations.ok()) {
          slot.result = violations.status();
          return;
        }
        partial.violations = std::move(violations).value();
        detect_span.End();
        obs::SetGauge(options_.run, "pipeline.violations",
                      static_cast<double>(partial.violations.size()));
        slot.ground = std::move(ground).value();
        slot.partial = std::move(partial);
      });

  // Phase 2 — one fused repair over every acquired document (consistent
  // ones included: the batch fast path marks them already_consistent
  // without solving, matching Submit()'s engine fast path).
  std::vector<size_t> to_repair;
  std::vector<repair::BatchRepairRequest> requests;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].result.has_value()) continue;
    repair::BatchRepairRequest request;
    request.db = &slots[i].partial->acquisition.database;
    request.ground = &*slots[i].ground;
    request.weights =
        ConfidenceWeights(slots[i].partial->acquisition.confidences);
    to_repair.push_back(i);
    requests.push_back(std::move(request));
  }
  if (!requests.empty()) {
    std::vector<Result<repair::RepairOutcome>> repaired =
        repair::ComputeRepairBatch(requests, constraints_,
                                   EngineOptionsFor({}));
    for (size_t k = 0; k < to_repair.size(); ++k) {
      DocSlot& slot = slots[to_repair[k]];
      if (!repaired[k].ok()) {
        slot.result = repaired[k].status();
        continue;
      }
      slot.partial->repair = std::move(repaired[k]).value();
    }
  }

  // Phase 3 — apply repairs and assemble id-tagged slots in input order.
  batch.documents.reserve(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    DocSlot& slot = slots[i];
    if (slot.result.has_value()) {
      batch.documents.push_back(BatchSlot{ids[i], *std::move(slot.result)});
      continue;
    }
    ProcessOutcome outcome = *std::move(slot.partial);
    Result<rel::Database> applied =
        outcome.repair.repair.Applied(outcome.acquisition.database);
    if (!applied.ok()) {
      batch.documents.push_back(BatchSlot{ids[i], applied.status()});
      continue;
    }
    outcome.repaired = std::move(applied).value();
    batch.documents.push_back(BatchSlot{ids[i], std::move(outcome)});
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  batch.stats.wall_seconds = wall;
  batch.stats.docs_per_second =
      wall > 0 ? static_cast<double>(htmls.size()) / wall : 0;
  batch.stats.acquire_threads = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(num_threads), htmls.size()));
  batch.stats.acquire_utilization = pool_stats.utilization();
  obs::SetGauge(options_.run, "pipeline.batch.docs_per_second",
                batch.stats.docs_per_second);
  obs::SetGauge(options_.run, "pipeline.batch.acquire_parallelism",
                static_cast<double>(batch.stats.acquire_threads));
  obs::SetGauge(options_.run, "pipeline.batch.acquire_utilization",
                batch.stats.acquire_utilization);
  return batch;
}

Result<repair::RepairOutcome> DartPipeline::Repair(
    const rel::Database& db,
    const std::vector<repair::FixedValue>& pins) const {
  obs::Span repair_span(options_.run, "pipeline.repair");
  repair::RepairEngine engine(EngineOptionsFor({}));
  return engine.ComputeRepair(db, constraints_, pins);
}

Result<validation::SessionResult> DartPipeline::ProcessSupervised(
    const std::string& html, const validation::SimulatedOperator& op,
    validation::SessionOptions session_options) const {
  obs::Span supervised_span(options_.run, "pipeline.supervised");
  DART_ASSIGN_OR_RETURN(AcquisitionOutcome acquisition, Acquire(html));
  // engine.run already points at the pipeline's context (set in Create);
  // the session falls back to it, so no run copy is needed here. progress
  // is per-call session state, forwarded from the pipeline default.
  session_options.engine = EngineOptionsFor(acquisition.confidences);
  if (options_.progress != nullptr && session_options.progress == nullptr) {
    session_options.progress = options_.progress;
  }
  return validation::RunValidationSession(acquisition.database, constraints_,
                                          op, session_options);
}

}  // namespace dart::core
