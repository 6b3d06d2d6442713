#include "repair/cqa.h"

#include <algorithm>
#include <functional>

#include "constraints/eval.h"
#include "repair/incremental.h"

namespace dart::repair {

namespace {

/// Grounds `db`, repairs it on a one-document session and ranges the forms
/// `make_forms` builds from the ground program over its optimal repairs, all
/// under one repair.cqa span. Fills the cardinality and solve counts of
/// `stats`.
Result<std::vector<FormRange>> RangeOverRepairs(
    const rel::Database& db, const cons::ConstraintSet& constraints,
    CqaOptions options,
    const std::function<std::vector<CellForm>(const cons::GroundProgram&)>&
        make_forms,
    CqaResult* stats) {
  // Solve and node counts come from the registry: when the caller did not
  // attach a RunContext, an ephemeral one scoops up the milp.* counters of
  // the repair and of every probe.
  obs::RunContext local_run;
  if (options.run == nullptr) {
    options.run = options.milp.run != nullptr ? options.milp.run : &local_run;
  }
  obs::RunContext* const run = options.run;
  const obs::MetricsSnapshot base = run->metrics().Snapshot();
  obs::Span cqa_span(run, "repair.cqa");
  obs::Span ground_span(run, "repair.ground");
  DART_ASSIGN_OR_RETURN(cons::GroundProgram ground,
                        cons::GroundConstraintProgram(db, constraints));
  ground_span.End();

  IncrementalRepairSession session({SessionDocument{&db, &ground, {}}},
                                   constraints, std::move(options));
  DART_ASSIGN_OR_RETURN(
      RepairOutcome outcome,
      std::move(session.ComputeRepairs({}, {}, /*span=*/"")[0]));
  DART_ASSIGN_OR_RETURN(std::vector<FormRange> ranges,
                        session.RangeForms(make_forms(ground)));
  const obs::MetricsSnapshot delta =
      run->metrics().Snapshot().DeltaSince(base);
  stats->min_repair_cardinality = outcome.repair.cardinality();
  stats->milp_solves = delta.Counter("milp.solves");
  stats->total_nodes = delta.Counter("milp.nodes");
  return ranges;
}

}  // namespace

Result<CqaResult> ComputeConsistentIntervals(
    const rel::Database& db, const cons::ConstraintSet& constraints,
    const CqaOptions& options) {
  // Cells outside every ground row are never updated by a card-minimal
  // repair; only the cells of some ground row get an interval, in CellRef
  // order.
  const std::vector<rel::CellRef> cells = db.MeasureCells();
  std::vector<int> ids;
  auto one_form_per_cell = [&](const cons::GroundProgram& ground) {
    for (const cons::GroundRow& row : ground.rows) {
      for (const auto& [id, coeff] : row.coefficients) ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end(),
              [&](int a, int b) { return cells[a] < cells[b]; });
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    std::vector<CellForm> forms;
    for (int id : ids) forms.push_back({{{id, 1.0}}, 0});
    return forms;
  };
  CqaResult result;
  DART_ASSIGN_OR_RETURN(
      std::vector<FormRange> ranges,
      RangeOverRepairs(db, constraints, options, one_form_per_cell, &result));
  DART_ASSIGN_OR_RETURN(std::vector<double> values, db.MeasureValues());
  for (size_t k = 0; k < ids.size(); ++k) {
    result.intervals.push_back(CellInterval{cells[ids[k]], values[ids[k]],
                                            ranges[k].min, ranges[k].max});
  }
  return result;
}

Result<QueryInterval> ConsistentAggregateAnswer(
    const rel::Database& db, const cons::ConstraintSet& constraints,
    const std::string& function_name, const std::vector<rel::Value>& params,
    const CqaOptions& options) {
  const cons::AggregationFunction* fn =
      constraints.FindFunction(function_name);
  if (fn == nullptr) {
    return Status::NotFound("aggregation function '" + function_name +
                            "' is not defined");
  }
  // Express the query as a linear form over repaired cells: for every tuple
  // of T_χ, measure attributes are cells, non-measure numerics are
  // constants — the same steadiness argument as the constraint translation.
  // The same pass evaluates the query on the acquired database.
  DART_ASSIGN_OR_RETURN(std::vector<size_t> tuple_set,
                        cons::AggregationTupleSet(db, *fn, params));
  const rel::Relation* relation = db.FindRelation(fn->relation);
  cons::LinearForm linear;
  DART_RETURN_IF_ERROR(fn->expr->Linearize(relation->schema(), &linear, 1.0));

  CellForm form;
  double measure_value = 0;
  for (size_t t : tuple_set) {
    form.constant += linear.constant;
    for (const auto& [attr, coeff] : linear.coefficients) {
      const rel::Value& v = relation->At(t, attr);
      if (!v.is_numeric()) {
        return Status::InvalidArgument(
            "non-numeric value under the summed expression of '" +
            function_name + "'");
      }
      if (relation->schema().attribute(attr).is_measure) {
        form.terms.push_back(
            {db.MeasureCellId(rel::CellRef{fn->relation, t, attr}), coeff});
        measure_value += coeff * v.AsReal();
      } else {
        form.constant += coeff * v.AsReal();
      }
    }
  }

  CqaResult stats;
  DART_ASSIGN_OR_RETURN(
      std::vector<FormRange> ranges,
      RangeOverRepairs(
          db, constraints, options,
          [&](const cons::GroundProgram&) { return std::vector{form}; },
          &stats));
  return QueryInterval{form.constant + measure_value, ranges[0].min,
                       ranges[0].max, stats.min_repair_cardinality};
}

}  // namespace dart::repair
