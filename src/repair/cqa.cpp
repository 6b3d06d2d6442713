#include "repair/cqa.h"

#include <algorithm>
#include <cmath>

#include "constraints/eval.h"

namespace dart::repair {

namespace {

/// Clones `base`, appends the cardinality cap Σδ ≤ k*, and installs an
/// arbitrary probe objective.
milp::Model ProbeModel(const milp::Model& base,
                       const std::vector<int>& delta_vars, size_t cardinality,
                       std::vector<milp::LinearTerm> objective,
                       double objective_constant,
                       milp::ObjectiveSense sense) {
  milp::Model model = base;
  std::vector<milp::LinearTerm> cap;
  cap.reserve(delta_vars.size());
  for (int delta : delta_vars) cap.push_back({delta, 1.0});
  model.AddRow("card_cap", std::move(cap), milp::RowSense::kLe,
               static_cast<double>(cardinality));
  model.SetObjective(std::move(objective), objective_constant, sense);
  return model;
}

/// Solves S*(AC) for the optimal cardinality k*. Node counts are not
/// threaded through here: callers wanting them diff the run's milp.nodes
/// counter around the whole computation.
Result<size_t> OptimalCardinality(const milp::Model& model,
                                  const milp::MilpOptions& options,
                                  int64_t* solves) {
  milp::MilpOptions base_options = options;
  base_options.objective_is_integral = true;
  milp::MilpResult base = milp::SolveMilp(model, base_options);
  ++*solves;
  if (milp::IsInfeasibleStatus(base.status)) {
    return Status::Infeasible("no repair exists; CQA is undefined");
  }
  if (base.status != milp::MilpResult::SolveStatus::kOptimal) {
    return Status::FailedPrecondition(
        "CQA base solve did not reach optimality");
  }
  return static_cast<size_t>(std::llround(base.objective));
}

}  // namespace

Result<CqaResult> ComputeConsistentIntervals(
    const rel::Database& db, const cons::ConstraintSet& constraints,
    const CqaOptions& options) {
  TranslatorOptions translator_options = options.translator;
  if (options.only_involved_cells) {
    translator_options.restrict_to_involved = true;
  }
  DART_ASSIGN_OR_RETURN(Translation translation,
                        TranslateToMilp(db, constraints, translator_options));

  // CqaResult::total_nodes is sourced from the registry: when the caller did
  // not attach a RunContext, an ephemeral one scoops up the milp.nodes
  // published by every solve of this computation (k* plus all probes).
  obs::RunContext local_run;
  milp::MilpOptions base_milp = options.milp;
  if (base_milp.run == nullptr) base_milp.run = &local_run;
  const obs::MetricsSnapshot nodes_base =
      base_milp.run->metrics().Snapshot();

  milp::MilpOptions milp_options = base_milp;
  milp_options.objective_is_integral = true;

  CqaResult result;
  // Step 1: the optimal cardinality k*.
  DART_ASSIGN_OR_RETURN(
      result.min_repair_cardinality,
      OptimalCardinality(translation.model, milp_options,
                         &result.milp_solves));

  // Step 2: per-cell min/max probes under the Σδ ≤ k* cap. The probe
  // objective z is integral for Z-domain cells, so bound rounding stays off.
  milp::MilpOptions probe_options = base_milp;
  probe_options.objective_is_integral = false;
  for (size_t i = 0; i < translation.cells.size(); ++i) {
    CellInterval interval;
    interval.cell = translation.cells[i];
    interval.current_value = translation.current_values[i];

    milp::Model min_model =
        ProbeModel(translation.model, translation.delta_vars,
                   result.min_repair_cardinality,
                   {{translation.z_vars[i], 1.0}}, 0,
                   milp::ObjectiveSense::kMinimize);
    milp::MilpResult lo = milp::SolveMilp(min_model, probe_options);
    ++result.milp_solves;
    if (lo.status != milp::MilpResult::SolveStatus::kOptimal) {
      return Status::Internal("CQA min-probe failed for cell " +
                              interval.cell.ToString());
    }
    milp::Model max_model =
        ProbeModel(translation.model, translation.delta_vars,
                   result.min_repair_cardinality,
                   {{translation.z_vars[i], 1.0}}, 0,
                   milp::ObjectiveSense::kMaximize);
    milp::MilpResult hi = milp::SolveMilp(max_model, probe_options);
    ++result.milp_solves;
    if (hi.status != milp::MilpResult::SolveStatus::kOptimal) {
      return Status::Internal("CQA max-probe failed for cell " +
                              interval.cell.ToString());
    }
    interval.min_value = lo.objective;
    interval.max_value = hi.objective;
    result.intervals.push_back(interval);
  }
  result.total_nodes =
      base_milp.run->metrics().Snapshot().DeltaSince(nodes_base).Counter(
          "milp.nodes");
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
  // The query must not use all-measure cells the translation excluded: use
  // the full (unrestricted) cell set so every tuple of T_χ has a z variable.
  TranslatorOptions translator_options = options.translator;
  translator_options.restrict_to_involved = false;
  DART_ASSIGN_OR_RETURN(Translation translation,
                        TranslateToMilp(db, constraints, translator_options));

  // Express the query as a linear form over z variables: for every tuple of
  // T_χ, measure attributes map to z, non-measure numerics are constants —
  // the same steadiness argument as the constraint translation. The same
  // pass evaluates the query on the acquired database.
  DART_ASSIGN_OR_RETURN(std::vector<size_t> tuple_set,
                        cons::AggregationTupleSet(db, *fn, params));
  const rel::Relation* relation = db.FindRelation(fn->relation);
  cons::LinearForm form;
  DART_RETURN_IF_ERROR(fn->expr->Linearize(relation->schema(), &form, 1.0));

  std::vector<milp::LinearTerm> objective;
  double objective_constant = 0;
  double measure_value = 0;
  for (size_t t : tuple_set) {
    objective_constant += form.constant;
    for (const auto& [attr, coeff] : form.coefficients) {
      const rel::Value& v = relation->At(t, attr);
      if (!v.is_numeric()) {
        return Status::InvalidArgument(
            "non-numeric value under the summed expression of '" +
            function_name + "'");
      }
      if (relation->schema().attribute(attr).is_measure) {
        const int index =
            translation.CellIndex(rel::CellRef{fn->relation, t, attr});
        DART_CHECK_MSG(index >= 0,
                       "unrestricted translation must cover every measure cell");
        objective.push_back(
            {translation.z_vars[static_cast<size_t>(index)], coeff});
        measure_value += coeff * v.AsReal();
      } else {
        objective_constant += coeff * v.AsReal();
      }
    }
  }

  QueryInterval interval;
  interval.value_on_acquired = objective_constant + measure_value;
  milp::MilpOptions milp_options = options.milp;
  int64_t solves = 0;
  DART_ASSIGN_OR_RETURN(
      interval.min_repair_cardinality,
      OptimalCardinality(translation.model, milp_options, &solves));

  milp::MilpOptions probe_options = options.milp;
  probe_options.objective_is_integral = false;
  milp::Model min_model = ProbeModel(
      translation.model, translation.delta_vars,
      interval.min_repair_cardinality, objective, objective_constant,
      milp::ObjectiveSense::kMinimize);
  milp::MilpResult lo = milp::SolveMilp(min_model, probe_options);
  if (lo.status != milp::MilpResult::SolveStatus::kOptimal) {
    return Status::Internal("CQA query min-probe failed");
  }
  milp::Model max_model = ProbeModel(
      translation.model, translation.delta_vars,
      interval.min_repair_cardinality, std::move(objective),
      objective_constant, milp::ObjectiveSense::kMaximize);
  milp::MilpResult hi = milp::SolveMilp(max_model, probe_options);
  if (hi.status != milp::MilpResult::SolveStatus::kOptimal) {
    return Status::Internal("CQA query max-probe failed");
  }
  interval.min_value = lo.objective;
  interval.max_value = hi.objective;
  return interval;
}

}  // namespace dart::repair
