#pragma once

#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "acquire/layout.h"
#include "acquire/positional.h"
#include "constraints/ast.h"
#include "constraints/eval.h"
#include "dbgen/generator.h"
#include "obs/context.h"
#include "relational/database.h"
#include "repair/engine.h"
#include "validation/session.h"
#include "wrapper/wrapper.h"
#include "util/status.h"

/// \file pipeline.h
/// The DART system facade, mirroring the two macro-modules of Fig. 2:
///
///   document ──► [Acquisition & extraction module] ──► database instance D
///                 (HTML wrapper + database generator)
///   D, AC     ──► [Repairing module] ──► card-minimal repair ρ, ρ(D)
///                 (steadiness check + MILP translation + solver)
///
/// plus the supervised validation loop of Sec. 6.3 on top.
///
/// The unified entry points are Submit / SubmitBatch: one ProcessRequest per
/// document (HTML or positional scanner output, plus a caller-chosen id that
/// is carried through to the outcome), one BatchRequest for a fused batch.

namespace dart::core {

/// Everything the *acquisition designer* provides (Sec. 2): domain
/// descriptions and hierarchy, row patterns, database-generation mappings
/// with classification information, and the aggregate-constraint program.
struct AcquisitionMetadata {
  wrap::DomainCatalog catalog;
  std::vector<wrap::RowPattern> patterns;
  std::vector<dbgen::RelationMapping> mappings;
  /// Constraint DSL text (see constraints/parser.h).
  std::string constraint_program;
  wrap::MatcherOptions matcher;
  /// Table localization: document-order indices of the tables to extract;
  /// empty = all tables (Sec. 6.2).
  std::set<size_t> table_positions;
};

struct PipelineOptions {
  repair::RepairEngineOptions engine;
  /// Observability sink for the whole pipeline (nullptr = no-op). One
  /// RunContext threads through every layer: the wrapper's matcher, the
  /// repair engine (and through it the MILP solver), and the validation
  /// session all publish into it, and pipeline.* spans frame the stages.
  /// Render with obs/report.h or scripts/trace_report.py. See
  /// docs/observability.md.
  obs::RunContext* run = nullptr;
  /// Live operator progress for ProcessSupervised: forwarded into
  /// SessionOptions::progress, one SessionProgressView per validation
  /// iteration (wrap an ostream in validation::OstreamProgressSink for the
  /// classic text line).
  validation::ProgressSink* progress = nullptr;
  /// Weight-minimal extension: use the wrapper's cell matching scores as
  /// per-cell change weights in the repair objective (min Σ wᵢδᵢ), so that
  /// low-confidence extractions are the preferred cells to change. Off by
  /// default — the paper's semantics is plain card-minimal.
  bool use_confidence_weights = false;
  /// Floor applied to confidence weights (a 0-weight cell would be free to
  /// change, erasing the minimality signal entirely).
  double min_confidence_weight = 0.05;
};

/// Output of the acquisition & extraction module.
struct AcquisitionOutcome {
  rel::Database database;
  wrap::ExtractionStats extraction;
  size_t skipped_rows = 0;
  std::vector<std::string> warnings;
  /// Extraction confidence per measure value (wrapper matching scores).
  std::vector<dbgen::CellConfidence> confidences;
};

/// Output of one unsupervised pass (acquire + detect + repair).
struct ProcessOutcome {
  AcquisitionOutcome acquisition;
  /// Violations detected in the acquired data (empty = consistent).
  std::vector<cons::Violation> violations;
  /// The suggested card-minimal repair (empty when consistent).
  repair::RepairOutcome repair;
  /// The acquired database with the suggested repair applied.
  rel::Database repaired;
};

/// One document as submitted to the unified entry points. Exactly one of
/// `html` / `positional` carries the payload: when `positional` is set the
/// document is scanner/PDF output and geometric table reconstruction
/// (acquire::ConvertToHtml) runs first, `html` being ignored.
struct ProcessRequest {
  /// Caller-chosen identifier carried through verbatim to the outcome slot,
  /// so multiplexed callers (the serving layer) can route results without
  /// positional bookkeeping. May be empty: SubmitBatch then fills it with
  /// the slot index ("#3").
  std::string id;
  std::string html;
  std::optional<acquire::PositionalDocument> positional;

  static ProcessRequest FromHtml(std::string html, std::string id = "") {
    ProcessRequest request;
    request.id = std::move(id);
    request.html = std::move(html);
    return request;
  }
  static ProcessRequest FromPositional(acquire::PositionalDocument document,
                                       std::string id = "") {
    ProcessRequest request;
    request.id = std::move(id);
    request.positional = std::move(document);
    return request;
  }
};

/// N documents as one fused unit of work.
struct BatchRequest {
  std::vector<ProcessRequest> documents;

  static BatchRequest FromHtmls(std::span<const std::string> htmls) {
    BatchRequest request;
    request.documents.reserve(htmls.size());
    for (const std::string& html : htmls) {
      request.documents.push_back(ProcessRequest::FromHtml(html));
    }
    return request;
  }
};

/// Aggregate accounting of one SubmitBatch call (also published as the
/// pipeline.batch.* gauges).
struct BatchStats {
  double wall_seconds = 0;
  /// Aggregate throughput: documents / wall_seconds.
  double docs_per_second = 0;
  /// Worker threads the acquisition fan-out used (min(num_threads, docs)).
  int acquire_threads = 1;
  /// Busy fraction of the acquisition pool (1.0 = no worker ever idle).
  double acquire_utilization = 0;
};

/// One document's result inside a BatchOutcome, tagged with the request id
/// it answers.
struct BatchSlot {
  std::string id;
  Result<ProcessOutcome> result;
};

/// Output of one SubmitBatch call: per-document slots in input order — a
/// document that fails (malformed HTML, infeasible repair, ...) fails only
/// its own slot, never its siblings.
struct BatchOutcome {
  std::vector<BatchSlot> documents;
  BatchStats stats;

  /// The first slot whose id matches, nullptr when absent.
  const BatchSlot* Find(std::string_view id) const {
    for (const BatchSlot& slot : documents) {
      if (slot.id == id) return &slot;
    }
    return nullptr;
  }
};

/// The assembled DART system.
class DartPipeline {
 public:
  /// Validates the metadata end-to-end: patterns against the catalog,
  /// mappings, and the constraint program against the declared schemes
  /// (including the steadiness requirement of Def. 6).
  static Result<DartPipeline> Create(AcquisitionMetadata metadata,
                                     PipelineOptions options = {});

  /// Module 1: document in, database instance out.
  Result<AcquisitionOutcome> Acquire(const std::string& html) const;

  /// Module 1 from scanner/PDF output: geometric table reconstruction
  /// (acquire::ConvertToHtml) followed by the ordinary HTML path.
  Result<AcquisitionOutcome> AcquirePositional(
      const acquire::PositionalDocument& document) const;

  /// Module 2 applied after module 1: one document in (HTML or positional,
  /// per the request), suggested repair out. The unified single-document
  /// entry point.
  Result<ProcessOutcome> Submit(const ProcessRequest& request) const;

  /// N documents as one fused unit of work (DESIGN.md "Batch ingestion"):
  /// acquisition + grounding + detection fan out largest-document-first
  /// across `engine.milp.search.num_threads` pool workers over the
  /// pipeline's shared immutable state, then every inconsistent document's
  /// MILP components are solved together in shared SolveMilpBatch calls
  /// (repair::ComputeRepairBatch). Per-document outcomes match N× Submit()
  /// bit-identically at every thread count and are returned in input order,
  /// each slot tagged with its request id (empty ids become the slot index). A document that fails any stage
  /// (reconstruction, acquisition, repair) fails only its own slot. One
  /// `pipeline.batch` span frames the call and the pipeline.batch.* gauges
  /// mirror `BatchOutcome::stats`.
  BatchOutcome SubmitBatch(const BatchRequest& request) const;

  /// Repair an already-acquired database (module 2 alone).
  Result<repair::RepairOutcome> Repair(
      const rel::Database& db,
      const std::vector<repair::FixedValue>& pins = {}) const;

  /// The full supervised loop: acquire, then iterate repair + operator
  /// validation until a repair is accepted.
  Result<validation::SessionResult> ProcessSupervised(
      const std::string& html, const validation::SimulatedOperator& op,
      validation::SessionOptions session_options = {}) const;

  const cons::ConstraintSet& constraints() const { return constraints_; }
  const AcquisitionMetadata& metadata() const { return *metadata_; }

 private:
  DartPipeline(std::unique_ptr<AcquisitionMetadata> metadata,
               PipelineOptions options, cons::ConstraintSet constraints);

  /// Engine options with confidence weights folded in (when enabled).
  repair::RepairEngineOptions EngineOptionsFor(
      const std::vector<dbgen::CellConfidence>& confidences) const;

  /// The per-cell repair weights implied by extraction confidences (empty
  /// unless `use_confidence_weights`); EngineOptionsFor appends these, the
  /// batch path passes them per document via BatchRepairRequest::weights.
  std::vector<repair::CellWeight> ConfidenceWeights(
      const std::vector<dbgen::CellConfidence>& confidences) const;

  /// Heap-held so the wrapper's pointer into the catalog stays valid when
  /// the pipeline itself is moved.
  std::unique_ptr<AcquisitionMetadata> metadata_;
  PipelineOptions options_;
  cons::ConstraintSet constraints_;
  wrap::Wrapper wrapper_;
  dbgen::DatabaseGenerator generator_;
};

}  // namespace dart::core
