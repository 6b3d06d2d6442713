#include "constraints/ground.h"

#include <algorithm>
#include <cmath>

#include "constraints/steady.h"

namespace dart::cons {

Result<GroundProgram> GroundConstraintProgram(
    const rel::Database& db, const ConstraintSet& constraints) {
  DART_RETURN_IF_ERROR(RequireAllSteady(db.Schema(), constraints));

  // One index per (relation, key attributes), shared by every premise atom
  // and aggregation function of the program; one plan per function.
  TupleIndexCache indexes(db);
  std::map<std::string, AggregationPlan> plans;
  auto plan_of =
      [&](const std::string& name) -> Result<const AggregationPlan*> {
    auto it = plans.find(name);
    if (it != plans.end()) return &it->second;
    const AggregationFunction* fn = constraints.FindFunction(name);
    if (fn == nullptr) {
      return Status::Internal("dangling aggregation function '" + name + "'");
    }
    DART_ASSIGN_OR_RETURN(AggregationPlan plan,
                          AggregationPlan::Compile(*fn, &indexes));
    return &plans.emplace(name, std::move(plan)).first->second;
  };

  // One measure occurrence of the current row. A row lists its cells in
  // CellRef order: by relation name, then by id (ids follow relation
  // insertion order, and CellRef order within one relation).
  struct Occurrence {
    const std::string* relation;
    int id;
    double factor;
    bool operator<(const Occurrence& o) const {
      return relation == o.relation ? id < o.id : *relation < *o.relation;
    }
  };
  std::vector<Occurrence> occurrences;

  GroundProgram out;
  for (const rel::Relation& r : db.relations()) {
    out.num_cells += r.size() * r.schema().measure_indexes().size();
  }
  for (const AggregateConstraint& constraint : constraints.constraints()) {
    const std::vector<std::string> project = TermVariables(constraint);
    DART_ASSIGN_OR_RETURN(
        std::vector<Binding> bindings,
        GroundSubstitutions(&indexes, constraint.premise, project));
    if (bindings.empty()) continue;
    std::vector<const AggregationPlan*> term_plans;
    // Per term, per attribute of its summed expression: the id of that
    // attribute's cell in row 0 (used for measures only; row t's cell is
    // t · |measures| further on).
    std::vector<std::vector<int>> term_row0_ids;
    for (const AggregateTerm& term : constraint.terms) {
      DART_ASSIGN_OR_RETURN(const AggregationPlan* plan,
                            plan_of(term.function));
      term_plans.push_back(plan);
      std::vector<int>& row0_ids = term_row0_ids.emplace_back();
      for (const auto& [attr, coeff] : plan->form().coefficients) {
        row0_ids.push_back(db.MeasureCellId(
            rel::CellRef{plan->relation().name(), 0, attr}));
      }
    }
    int instance = 0;
    for (Binding& binding : bindings) {
      GroundRow row;
      row.constraint = constraint.name;
      row.name = constraint.name + "#" + std::to_string(instance++);
      row.op = constraint.op;
      row.rhs = constraint.rhs;
      row.rhs_original = constraint.rhs;
      for (size_t i = 0; i < constraint.terms.size(); ++i) {
        const AggregateTerm& term = constraint.terms[i];
        const AggregationPlan& plan = *term_plans[i];
        const std::vector<int>& row0_ids = term_row0_ids[i];
        const AggregationFunction& fn = plan.function();
        const rel::Relation& relation = plan.relation();
        const size_t stride = relation.schema().measure_indexes().size();
        const LinearForm& form = plan.form();
        DART_ASSIGN_OR_RETURN(std::vector<rel::Value> params,
                              ResolveCallArgs(term, binding));
        DART_ASSIGN_OR_RETURN(std::vector<size_t> tuple_set,
                              plan.TupleSet(params));
        // P(χ): per tuple t of T_χ, measure attributes stay symbolic,
        // everything else is a constant under any repair (steadiness).
        for (size_t t : tuple_set) {
          row.rhs -= term.coefficient * form.constant;
          size_t k = 0;
          for (const auto& [attr, coeff] : form.coefficients) {
            const double factor = term.coefficient * coeff;
            const int row0_id = row0_ids[k++];
            if (relation.schema().attribute(attr).is_measure) {
              occurrences.push_back(Occurrence{
                  &relation.name(), row0_id + static_cast<int>(t * stride),
                  factor});
              out.max_abs_factor = std::max(out.max_abs_factor,
                                            std::fabs(factor));
            } else {
              const rel::Value& v = relation.At(t, attr);
              if (!v.is_numeric()) {
                return Status::InvalidArgument(
                    "non-numeric value in summed attribute of '" + fn.name +
                    "'");
              }
              row.rhs -= factor * v.AsReal();
            }
          }
        }
      }
      // Sum each cell's factors in occurrence order. Drop zero coefficients
      // produced by cancellation. Rows that end up with no coefficients
      // stay: they are constant facts the evaluator still checks and the
      // translator treats as (ir)reparability proofs.
      std::stable_sort(occurrences.begin(), occurrences.end());
      for (size_t k = 0; k < occurrences.size();) {
        const int id = occurrences[k].id;
        double coefficient = 0;
        for (; k < occurrences.size() && occurrences[k].id == id; ++k) {
          coefficient += occurrences[k].factor;
        }
        if (coefficient != 0) row.coefficients.emplace_back(id, coefficient);
      }
      occurrences.clear();
      row.binding = std::move(binding);
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

Result<std::vector<Violation>> EvaluateGroundRows(
    const GroundProgram& program, const std::vector<double>& values) {
  if (values.size() != program.num_cells) {
    return Status::InvalidArgument(
        "ground program over " + std::to_string(program.num_cells) +
        " measure cells evaluated at " + std::to_string(values.size()) +
        " values");
  }
  std::vector<Violation> violations;
  for (const GroundRow& row : program.rows) {
    double measure_sum = 0;
    for (const auto& [id, coeff] : row.coefficients) {
      measure_sum += coeff * values[static_cast<size_t>(id)];
    }
    // Report in the constraint's original space: undo the constant shift so
    // lhs/rhs match what the constraint literally says.
    const double lhs = measure_sum + (row.rhs_original - row.rhs);
    if (!SatisfiesCompare(lhs, row.op, row.rhs_original)) {
      Violation violation;
      violation.constraint = row.constraint;
      violation.binding = row.binding;
      violation.lhs = lhs;
      violation.op = row.op;
      violation.rhs = row.rhs_original;
      violations.push_back(std::move(violation));
    }
  }
  return violations;
}

Result<std::vector<Violation>> EvaluateGroundProgram(
    const rel::Database& db, const GroundProgram& program) {
  DART_ASSIGN_OR_RETURN(std::vector<double> values, db.MeasureValues());
  return EvaluateGroundRows(program, values);
}

Result<std::vector<Violation>> ConsistencyChecker::Check(
    const rel::Database& db) const {
  DART_ASSIGN_OR_RETURN(GroundProgram program,
                        GroundConstraintProgram(db, *constraints_));
  return EvaluateGroundProgram(db, program);
}

Result<bool> ConsistencyChecker::IsConsistent(const rel::Database& db) const {
  DART_ASSIGN_OR_RETURN(std::vector<Violation> violations, Check(db));
  return violations.empty();
}

}  // namespace dart::cons
