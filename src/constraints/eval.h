#pragma once

#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "constraints/ast.h"
#include "relational/database.h"
#include "util/status.h"

/// \file eval.h
/// Grounding primitives of aggregate constraints: tuple indexes over a
/// database instance, the ground substitutions θ of a premise φ, and the
/// tuple sets T_χ of aggregation functions; plus the D ⊨ AC / D ⊭ AC check
/// with a detailed violation report.

namespace dart::cons {

/// A ground substitution θ restricted to the variables of interest.
using Binding = std::map<std::string, rel::Value>;

std::string BindingToString(const Binding& binding);

/// Comparison with an absolute tolerance, used wherever constraint
/// satisfaction over real-valued data is decided.
bool SatisfiesCompare(double lhs, CompareOp op, double rhs,
                      double tolerance = 1e-6);

/// Row ids of one relation grouped by the values of a fixed attribute list.
/// Keys compare with `rel::Value`'s `==`, which is exactly `EvalCompare`'s
/// `=`: 2 finds 2.0, a string never finds a number, and a NaN (equal to
/// nothing) is never indexed and never found.
class TupleIndex {
 public:
  TupleIndex(const rel::Relation& relation,
             const std::vector<size_t>& attributes);

  /// Ids of the rows whose key attributes equal `key` (one value per
  /// attribute, in order), ascending.
  std::span<const size_t> Lookup(const std::vector<rel::Value>& key) const;

 private:
  /// A hash that agrees with `==`: numerics hash by their double value.
  struct KeyHash {
    size_t operator()(const std::vector<rel::Value>& key) const;
  };

  std::unordered_map<std::vector<rel::Value>, std::vector<size_t>, KeyHash>
      groups_;
};

/// The tuple indexes over one database instance: one per (relation,
/// attribute list), built on first use and shared by every premise atom and
/// aggregation function keyed the same way. The database must outlive the
/// cache and stay unchanged while it is used.
class TupleIndexCache {
 public:
  explicit TupleIndexCache(const rel::Database& db) : db_(db) {}

  const rel::Database& db() const { return db_; }

  /// NotFound if the relation is missing from the instance.
  Result<const TupleIndex*> Get(const std::string& relation,
                                const std::vector<size_t>& attributes);

 private:
  const rel::Database& db_;
  std::map<std::pair<std::string, std::vector<size_t>>, TupleIndex> indexes_;
};

/// Enumerates the ground substitutions of `atoms` over the indexed database,
/// projected onto `project_vars` and deduplicated. A projected binding
/// appears in the result iff it extends to a full substitution making every
/// atom true. Each atom is joined through an index on its constants and on
/// the variables earlier atoms bound, so only matching rows are visited.
///
/// Variables not listed in `project_vars` act as the paper's '_' wildcards.
Result<std::vector<Binding>> GroundSubstitutions(
    TupleIndexCache* indexes, const std::vector<Atom>& atoms,
    const std::vector<std::string>& project_vars);

/// Resolves the call-site arguments Xᵢ of `term` under `binding` into
/// concrete parameter values for the aggregation function.
Result<std::vector<rel::Value>> ResolveCallArgs(const AggregateTerm& term,
                                                const Binding& binding);

/// An aggregation function χ compiled against one database: the WHERE
/// conjunction split into equalities `Attr = param` / `Attr = const`, which
/// key a tuple index, and a residual of every other comparison, which
/// filters the rows the index returns; the summed expression linearized.
class AggregationPlan {
 public:
  /// The plan refers to `fn` and to an index in `indexes`; both must
  /// outlive it.
  static Result<AggregationPlan> Compile(const AggregationFunction& fn,
                                         TupleIndexCache* indexes);

  /// T_χ: ids of the tuples of χ's relation satisfying the WHERE clause
  /// under `param_values`, ascending (paper Sec. 5).
  Result<std::vector<size_t>> TupleSet(
      const std::vector<rel::Value>& param_values) const;

  const AggregationFunction& function() const { return *fn_; }
  const rel::Relation& relation() const { return *relation_; }
  /// The summed expression e over `relation()`'s attributes.
  const LinearForm& form() const { return form_; }

 private:
  /// A WHERE operand resolved to a constant, an attribute index or a
  /// parameter index.
  struct Source {
    Operand::Kind kind = Operand::Kind::kConstant;
    size_t index = 0;
    rel::Value constant;

    const rel::Value& Get(const rel::Tuple& tuple,
                          const std::vector<rel::Value>& params) const;
  };
  struct Residual {
    Source lhs;
    CompareOp op = CompareOp::kEq;
    Source rhs;
  };

  AggregationPlan() = default;

  const AggregationFunction* fn_ = nullptr;
  const rel::Relation* relation_ = nullptr;
  LinearForm form_;
  const TupleIndex* index_ = nullptr;
  std::vector<Source> key_;  ///< one per index attribute: constant or param.
  std::vector<Residual> residual_;
};

/// T_χ for one call: compiles `fn` over a private index and looks up once.
Result<std::vector<size_t>> AggregationTupleSet(
    const rel::Database& db, const AggregationFunction& fn,
    const std::vector<rel::Value>& param_values);

/// One violated ground instance of a constraint.
struct Violation {
  std::string constraint;
  Binding binding;
  double lhs = 0;
  CompareOp op = CompareOp::kLe;
  double rhs = 0;

  std::string ToString() const;
};

/// Checks a database against a steady constraint set: grounds it
/// (`GroundConstraintProgram`) and evaluates the ground rows
/// (`EvaluateGroundProgram`); both live in ground.{h,cpp}.
class ConsistencyChecker {
 public:
  explicit ConsistencyChecker(const ConstraintSet* constraints)
      : constraints_(constraints) {}

  /// All violated ground constraint instances (empty ⇔ D ⊨ AC).
  Result<std::vector<Violation>> Check(const rel::Database& db) const;

  /// D ⊨ AC?
  Result<bool> IsConsistent(const rel::Database& db) const;

 private:
  const ConstraintSet* constraints_;
};

/// Variables of the premise that a constraint's terms actually reference —
/// the projection used when grounding the constraint.
std::vector<std::string> TermVariables(const AggregateConstraint& constraint);

}  // namespace dart::cons
