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

  GroundProgram out;
  for (const AggregateConstraint& constraint : constraints.constraints()) {
    const std::vector<std::string> project = TermVariables(constraint);
    DART_ASSIGN_OR_RETURN(
        std::vector<Binding> bindings,
        GroundSubstitutions(&indexes, constraint.premise, project));
    if (bindings.empty()) continue;
    std::vector<const AggregationPlan*> term_plans;
    for (const AggregateTerm& term : constraint.terms) {
      DART_ASSIGN_OR_RETURN(const AggregationPlan* plan,
                            plan_of(term.function));
      term_plans.push_back(plan);
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
        const AggregationFunction& fn = plan.function();
        const rel::Relation& relation = plan.relation();
        const LinearForm& form = plan.form();
        DART_ASSIGN_OR_RETURN(std::vector<rel::Value> params,
                              ResolveCallArgs(term, binding));
        DART_ASSIGN_OR_RETURN(std::vector<size_t> tuple_set,
                              plan.TupleSet(params));
        // P(χ): per tuple t of T_χ, measure attributes stay symbolic,
        // everything else is a constant under any repair (steadiness).
        for (size_t t : tuple_set) {
          row.rhs -= term.coefficient * form.constant;
          for (const auto& [attr, coeff] : form.coefficients) {
            const double factor = term.coefficient * coeff;
            if (relation.schema().attribute(attr).is_measure) {
              row.coefficients[rel::CellRef{fn.relation, t, attr}] += factor;
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
      // Drop zero coefficients produced by cancellation. Rows that end up
      // with no coefficients stay: they are constant facts the evaluator
      // still checks and the translator treats as (ir)reparability proofs.
      for (auto it = row.coefficients.begin(); it != row.coefficients.end();) {
        if (it->second == 0) it = row.coefficients.erase(it);
        else ++it;
      }
      row.binding = std::move(binding);
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

Result<std::vector<Violation>> EvaluateGroundProgram(
    const rel::Database& db, const GroundProgram& program) {
  std::vector<Violation> violations;
  for (const GroundRow& row : program.rows) {
    double measure_sum = 0;
    for (const auto& [cell, coeff] : row.coefficients) {
      DART_ASSIGN_OR_RETURN(rel::Value v, db.ValueAt(cell));
      if (!v.is_numeric()) {
        return Status::InvalidArgument("measure cell " + cell.ToString() +
                                       " holds a non-numeric value");
      }
      measure_sum += coeff * v.AsReal();
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
